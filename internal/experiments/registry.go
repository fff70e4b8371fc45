package experiments

import (
	"context"
	"fmt"
	"sort"
)

// Runner produces one experiment's table using the paper's default
// parameters. The analytic experiments evaluate formulas only and ignore
// the context; the measured ones run archives under it.
type Runner func(ctx context.Context) (*Table, error)

// Registry maps experiment IDs to runners, one per table/figure of the
// paper plus the Section V-A census.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table1":   Table1,
		"fig2":     func(context.Context) (*Table, error) { return Fig2(DefaultPGrid()) },
		"fig3":     func(context.Context) (*Table, error) { return Fig3(DefaultPGrid()) },
		"fig4":     func(context.Context) (*Table, error) { return Fig4(DefaultPGrid()) },
		"fig5":     func(context.Context) (*Table, error) { return Fig5(DefaultPGrid()) },
		"fig6":     func(context.Context) (*Table, error) { return Fig6() },
		"fig7":     Fig7,
		"fig8":     Fig8,
		"fig9":     Fig9,
		"census":   func(context.Context) (*Table, error) { return Census() },
		"puncture": Puncture,
		"reversed": Reversed,
		"fig4sys":  Fig4System,
		"lsweep":   LSweep,
		"repair":   Repair,
	}
}

// IDs returns the registered experiment IDs in stable order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given ID.
func Run(ctx context.Context, id string) (*Table, error) {
	runner, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return runner(ctx)
}
