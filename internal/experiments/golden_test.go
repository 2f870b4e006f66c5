package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"smbm/internal/sim"
	"smbm/internal/spec"
)

// panelGolden pins every Fig. 5 panel's exact output: the SHA-256 of
// `smbsim -experiment <id> -slots 400 -seeds 2 -seed 3 -csv`, i.e.
// "# <id>\n" + CSV + "\n". A change to any panel's traffic, geometry,
// roster or seeding shows up here.
var panelGolden = map[string]string{
	"fig5.1": "6e71ecfe7aa28a1ea7b6cb34ab32e0b4cca40ac79e5d8a3e001a01a721da3857",
	"fig5.2": "39a422f934eb04a08720cdfe92831cb4e1312a34026d8b86b9d53367fa09a426",
	"fig5.3": "22909c55f9613cb0036acdeb59b06493138945fcfa071c6eafffbee5a5160df0",
	"fig5.4": "42a86b3322657f928214571d34ce54e8cfc00d6f887fb4a26b6853549fa0848a",
	"fig5.5": "1264527ab4382a322abb5336c330c8e8305f429465dd716a41f8f07983a49264",
	"fig5.6": "d767b2d7a1a73dc9e9623a75e385b8c088e5a41b789258ff31e0a40d226b45e8",
	"fig5.7": "db777d02535db340e25f630bb567d590a44db181c5901a260ccf2d023b8cfa90",
	"fig5.8": "8b2c5ac704d646b16fe3340ff95d187494ff1529350f6ecd55a6ddb5c3c9ed46",
	"fig5.9": "c19145f96cf537008ddb79907d089bb5137f733dda83621de01d2f53c6061930",
}

// panelCSV runs one sweep and renders it as smbsim -csv does.
func panelCSV(t *testing.T, build func() (*sim.Sweep, error)) []byte {
	t.Helper()
	sweep, err := build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run()
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf("# %s\n%s\n", res.Name, res.CSV()))
}

func TestPanelGolden(t *testing.T) {
	o := Options{Slots: 400, Seeds: 2, BaseSeed: 3}
	for _, id := range PanelIDs() {
		t.Run(id, func(t *testing.T) {
			sum := sha256.Sum256(panelCSV(t, func() (*sim.Sweep, error) { return Panel(id, o) }))
			if got := hex.EncodeToString(sum[:]); got != panelGolden[id] {
				t.Errorf("CSV digest %s, want %s", got, panelGolden[id])
			}
		})
	}
}

// TestPanelSpecRoundTrip: every panel is a plain JSON spec. Marshaled
// and loaded back through spec.Load, which rejects unknown fields, it
// renders the same CSV as Panel.
func TestPanelSpecRoundTrip(t *testing.T) {
	o := Options{Slots: 200, Seeds: 1, Sources: 40, FlushEvery: 100, BaseSeed: 2}
	for _, id := range PanelIDs() {
		t.Run(id, func(t *testing.T) {
			e, err := panelSpec(id, o)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := spec.Load(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("spec.Load(%s): %v", raw, err)
			}
			want := panelCSV(t, func() (*sim.Sweep, error) { return Panel(id, o) })
			if got := panelCSV(t, loaded.ToSweep); !bytes.Equal(got, want) {
				t.Errorf("loaded spec %s renders\n%s\nwant\n%s", raw, got, want)
			}
		})
	}
}
