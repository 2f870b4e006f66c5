package core

import (
	"errors"
	"strings"
	"testing"
)

func validProcCfg() Config {
	return Config{
		Model:    ModelProcessing,
		Ports:    4,
		Buffer:   8,
		MaxLabel: 6,
		Speedup:  1,
		PortWork: []int{1, 2, 3, 6},
	}
}

func validValCfg() Config {
	return Config{
		Model:    ModelValue,
		Ports:    4,
		Buffer:   8,
		MaxLabel: 4,
		Speedup:  1,
	}
}

func TestConfigValidate(t *testing.T) {
	mutate := func(f func(*Config)) Config {
		c := validProcCfg()
		f(&c)
		return c
	}
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid processing", validProcCfg(), false},
		{"valid value", validValCfg(), false},
		{"valid nil PortWork", mutate(func(c *Config) { c.PortWork = nil }), false},
		{"zero model", mutate(func(c *Config) { c.Model = 0 }), true},
		{"unknown model", mutate(func(c *Config) { c.Model = 9 }), true},
		{"retired combined model", mutate(func(c *Config) { c.Model = ModelCombined }), true},
		{"zero ports", mutate(func(c *Config) { c.Ports = 0 }), true},
		{"buffer below ports", mutate(func(c *Config) { c.Buffer = 3 }), true},
		{"zero max label", mutate(func(c *Config) { c.MaxLabel = 0 }), true},
		{"zero speedup", mutate(func(c *Config) { c.Speedup = 0 }), true},
		{"PortWork wrong len", mutate(func(c *Config) { c.PortWork = []int{1, 2} }), true},
		{"PortWork above max", mutate(func(c *Config) { c.PortWork = []int{1, 2, 3, 7} }), true},
		{"PortWork zero entry", mutate(func(c *Config) { c.PortWork = []int{0, 2, 3, 6} }), true},
		{"PortWork not sorted", mutate(func(c *Config) { c.PortWork = []int{2, 1, 3, 6} }), true},
		{"value model with PortWork", func() Config {
			c := validValCfg()
			c.PortWork = []int{1, 1, 1, 1}
			return c
		}(), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if (err != nil) != c.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, c.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadConfig) {
				t.Errorf("error %v does not wrap ErrBadConfig", err)
			}
		})
	}
}

func TestContiguousWorks(t *testing.T) {
	got := ContiguousWorks(4)
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ContiguousWorks(4)[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestUniformWorks(t *testing.T) {
	got := UniformWorks(3, 5)
	for i, w := range got {
		if w != 5 {
			t.Errorf("UniformWorks[%d] = %d, want 5", i, w)
		}
	}
	if len(got) != 3 {
		t.Errorf("len = %d, want 3", len(got))
	}
}

func TestModelString(t *testing.T) {
	if got := ModelProcessing.String(); got != "processing" {
		t.Errorf("ModelProcessing.String() = %q", got)
	}
	if got := ModelValue.String(); got != "value" {
		t.Errorf("ModelValue.String() = %q", got)
	}
	if got := Model(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown model String() = %q", got)
	}
}

func TestPortWorkDefaults(t *testing.T) {
	c := validProcCfg()
	c.PortWork = nil
	works := c.portWork()
	for i, w := range works {
		if w != 1 {
			t.Errorf("default work[%d] = %d, want 1", i, w)
		}
	}
	v := validValCfg()
	for i, w := range v.portWork() {
		if w != 1 {
			t.Errorf("value-model work[%d] = %d, want 1", i, w)
		}
	}
}
