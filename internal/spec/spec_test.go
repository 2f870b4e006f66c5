package spec

import (
	"strings"
	"testing"
)

const minimal = `{
  "name": "my-sweep",
  "model": "processing",
  "sweep": "B",
  "values": [32, 64],
  "k": 8,
  "policies": ["LWD", "LQD"],
  "slots": 400,
  "seeds": 1,
  "traffic": {"sources": 20, "load": 2.0}
}`

func TestLoadMinimal(t *testing.T) {
	e, err := Load(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "my-sweep" || e.Sweep != "B" || len(e.Values) != 2 {
		t.Errorf("parsed %+v", e)
	}
}

func TestLoadRejections(t *testing.T) {
	cases := []struct {
		name, json string
		want       string // a substring of the error, when set
	}{
		{"unknown field", `{"name":"x","model":"processing","sweep":"B","values":[1],"bogus":1}`, ""},
		{"missing name", `{"model":"processing","sweep":"B","values":[8]}`, ""},
		{"bad model", `{"name":"x","model":"quantum","sweep":"B","values":[8]}`, ""},
		{"retired combined model", `{"name":"x","model":"combined","sweep":"B","values":[8]}`, ""},
		{"bad sweep", `{"name":"x","model":"processing","sweep":"q","values":[8]}`, ""},
		{"no values", `{"name":"x","model":"processing","sweep":"B","values":[]}`, ""},
		{"nonpositive value", `{"name":"x","model":"processing","sweep":"B","values":[0]}`, ""},
		{"unknown policy", `{"name":"x","model":"processing","sweep":"B","values":[8],"policies":["NOPE"]}`, ""},
		{"value policy in processing", `{"name":"x","model":"processing","sweep":"B","values":[8],"policies":["MRD"]}`, ""},
		{"portwork in value model", `{"name":"x","model":"value","sweep":"B","values":[8],"port_work":[1,2]}`, ""},
		{"sweep k with portwork", `{"name":"x","model":"processing","sweep":"k","values":[8],"port_work":[1,2]}`, ""},
		{"load and rate", `{"name":"x","model":"processing","sweep":"B","values":[8],"traffic":{"load":2,"rate":5}}`, ""},
		{"bad value label", `{"name":"x","model":"value","sweep":"B","values":[8],"label":"nope"}`, ""},
		{"not json", `hello`, ""},
		{"label in processing model", `{"name":"x","model":"processing","label":"by-port","sweep":"B","values":[8]}`, "label"},
		{"negative k", `{"name":"x","model":"processing","sweep":"B","values":[8],"k":-3}`, "k -3"},
		{"negative B", `{"name":"x","model":"processing","sweep":"k","values":[8],"B":-1}`, "B -1"},
		{"negative C", `{"name":"x","model":"value","sweep":"B","values":[8],"C":-1}`, "C -1"},
		{"negative slots", `{"name":"x","model":"processing","sweep":"B","values":[8],"slots":-5}`, "slots -5"},
		{"negative seeds", `{"name":"x","model":"processing","sweep":"B","values":[8],"seeds":-1}`, "seeds -1"},
		{"negative flush_every", `{"name":"x","model":"processing","sweep":"B","values":[8],"flush_every":-1}`, "flush_every -1"},
		{"negative sources", `{"name":"x","model":"processing","sweep":"B","values":[8],"traffic":{"sources":-2}}`, "traffic.sources -2"},
		{"negative load", `{"name":"x","model":"processing","sweep":"B","values":[8],"traffic":{"load":-0.5}}`, "traffic.load -0.5"},
		{"negative rate", `{"name":"x","model":"value","sweep":"B","values":[8],"traffic":{"rate":-3}}`, "traffic.rate -3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(c.json))
			if err == nil {
				t.Fatalf("accepted: %s", c.json)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want one naming %q", err, c.want)
			}
		})
	}
}

func TestRunProcessingSpec(t *testing.T) {
	e, err := Load(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := e.ToSweep()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points %d", len(res.Points))
	}
	if len(res.Policies) != 2 || res.Policies[0] != "LWD" {
		t.Errorf("policies %v", res.Policies)
	}
	// The larger buffer must not be more congested.
	if res.Points[1].Ratio["LWD"].Mean > res.Points[0].Ratio["LWD"].Mean*1.2 {
		t.Errorf("ratio grew with buffer: %+v", res.Points)
	}
}

func TestRunValueSpec(t *testing.T) {
	const valueSpec = `{
	  "name": "tiers",
	  "model": "value",
	  "sweep": "C",
	  "values": [1, 2],
	  "k": 8,
	  "B": 64,
	  "label": "by-port",
	  "policies": ["MRD", "MVD", "NHSTV"],
	  "slots": 400,
	  "seeds": 1,
	  "traffic": {"sources": 20, "rate": 20}
	}`
	e, err := Load(strings.NewReader(valueSpec))
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := e.ToSweep()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 3 {
		t.Errorf("policies %v", res.Policies)
	}
	for _, p := range res.Points {
		for name, s := range p.Ratio {
			if s.Mean < 1.0-1e-6 {
				t.Errorf("C=%d %s ratio %v < 1", p.X, name, s.Mean)
			}
		}
	}
}

func TestDefaultRoster(t *testing.T) {
	cases := []struct {
		name, fields string
		want         int
	}{
		{"processing", `"model": "processing"`, 8},
		// NHSTV is defined for value≡port only, so the uniform roster
		// leaves it out.
		{"value/uniform", `"model": "value", "label": "uniform"`, 7},
		{"value/by-port", `"model": "value", "label": "by-port"`, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := Load(strings.NewReader(`{"name": "full", ` + c.fields + `, "sweep": "C", "values": [1],
			  "k": 4, "B": 16, "slots": 100, "seeds": 1, "traffic": {"sources": 5}}`))
			if err != nil {
				t.Fatal(err)
			}
			sweep, err := e.ToSweep()
			if err != nil {
				t.Fatal(err)
			}
			res, err := sweep.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Policies) != c.want {
				t.Errorf("default roster %v, want %d policies", res.Policies, c.want)
			}
		})
	}
}

func TestParams(t *testing.T) {
	e := &Experiment{Sweep: "C"}
	k, b, c := e.params(5)
	if k != 16 || b != 200 || c != 5 {
		t.Errorf("params = %d %d %d", k, b, c)
	}
	e = &Experiment{Sweep: "k", B: 99}
	k, b, c = e.params(7)
	if k != 7 || b != 99 || c != 1 {
		t.Errorf("params = %d %d %d", k, b, c)
	}
}
