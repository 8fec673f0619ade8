package experiments

import (
	"fmt"
	"sort"
)

// RunFunc executes one simulation. Run is the stock one; callers wrap it
// to arm strict mode, attach a per-run tracer, or swap the arena, and hand
// the wrapper to a Builder.
type RunFunc func(RunConfig) (RunResult, error)

// Builder produces one experiment's table, simulating only through run.
// The rigs that drive their own engine (t1, f1, f2, f15, f21, t7) ignore
// it.
type Builder func(run RunFunc) (Table, error)

// registry maps experiment IDs to builders. IDs follow the reconstructed
// evaluation's numbering (see DESIGN.md §4).
var registry = map[string]Builder{
	"t1":  TableT1,
	"f1":  FigF1,
	"f2":  FigF2,
	"f3":  FigF3,
	"f4":  FigF4,
	"f5":  FigF5,
	"f6":  FigF6,
	"t2":  TableT2,
	"f7":  FigF7,
	"f8":  FigF8,
	"f9":  FigF9,
	"f10": FigF10,
	"f11": FigF11,
	"f12": FigF12,
	"t3":  TableT3,
	"f13": FigF13,
	"f14": FigF14,
	"f15": FigF15,
	"f16": FigF16,
	"f17": FigF17,
	"f18": FigF18,
	"f19": FigF19,
	"t4":  TableT4,
	"t5":  TableT5,
	"t6":  TableT6,
	"f20": FigF20,
	"f21": FigF21,
	"t7":  TableT7,
	"t8":  TableT8,
	"t9":  TableT9,
}

// IDs returns all experiment IDs in report order.
func IDs() []string {
	order := map[string]int{
		"t1": 0, "f1": 1, "f2": 2, "f3": 3, "f4": 4, "f5": 5, "f6": 6,
		"t2": 7, "f7": 8, "f8": 9, "f9": 10, "f10": 11, "f11": 12,
		"f12": 13, "t3": 14, "f13": 15, "f14": 16, "f15": 17, "f16": 18, "f17": 19, "f18": 20, "f19": 21, "t4": 22, "t5": 23, "t6": 24, "f20": 25, "f21": 26, "t7": 27, "t8": 28, "t9": 29,
	}
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return order[out[i]] < order[out[j]] })
	return out
}

// Get returns the builder for an experiment ID.
func Get(id string) (Builder, error) {
	b, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return b, nil
}
