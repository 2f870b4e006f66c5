package pkt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstructors(t *testing.T) {
	cases := []struct {
		name string
		got  Packet
		want Packet
	}{
		{"NewWork", NewWork(2, 5), Packet{Port: 2, Work: 5, Value: 1}},
		{"NewValue", NewValue(1, 7), Packet{Port: 1, Work: 1, Value: 7}},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, c.got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	if got := NewWork(2, 3).String(); got != "[w=3 -> 2]" {
		t.Errorf("work packet String() = %q", got)
	}
	if got := NewValue(0, 4).String(); got != "[v=4 -> 0]" {
		t.Errorf("value packet String() = %q", got)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		p       Packet
		ports   int
		max     int
		wantErr bool
	}{
		{"valid", NewWork(0, 3), 4, 6, false},
		{"valid max", NewWork(3, 6), 4, 6, false},
		{"port negative", Packet{Port: -1, Work: 1, Value: 1}, 4, 6, true},
		{"port too big", NewWork(4, 1), 4, 6, true},
		{"work zero", Packet{Port: 0, Work: 0, Value: 1}, 4, 6, true},
		{"work too big", NewWork(0, 7), 4, 6, true},
		{"value zero", Packet{Port: 0, Work: 1, Value: 0}, 4, 6, true},
		{"value too big", NewValue(0, 7), 4, 6, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate(c.ports, c.max)
			if (err != nil) != c.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, c.wantErr)
			}
		})
	}
}

func TestBurst(t *testing.T) {
	b := Burst(NewWork(1, 2), 5)
	if len(b) != 5 {
		t.Fatalf("len = %d, want 5", len(b))
	}
	for _, p := range b {
		if p != NewWork(1, 2) {
			t.Errorf("burst element %+v differs", p)
		}
	}
	if got := Burst(NewWork(0, 1), 0); got != nil {
		t.Errorf("Burst with h=0 = %v, want nil", got)
	}
	if got := Burst(NewWork(0, 1), -3); got != nil {
		t.Errorf("Burst with h<0 = %v, want nil", got)
	}
}

func TestConcat(t *testing.T) {
	a := Burst(NewWork(0, 1), 2)
	b := Burst(NewWork(1, 1), 3)
	all := Concat(a, b, nil)
	if len(all) != 5 {
		t.Fatalf("len = %d, want 5", len(all))
	}
	if all[0].Port != 0 || all[4].Port != 1 {
		t.Errorf("order not preserved: %v", all)
	}
}

func TestQuickBurstTotals(t *testing.T) {
	f := func(port, work uint8, h uint8) bool {
		p := NewWork(int(port), 1+int(work%16))
		n := int(h % 64)
		b := Burst(p, n)
		if len(b) != n {
			return false
		}
		for _, q := range b {
			if q != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qcfg(100)); err != nil {
		t.Error(err)
	}
}

// qcfg returns a deterministic quick.Config so property tests are
// reproducible run to run.
func qcfg(n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(7))}
}
