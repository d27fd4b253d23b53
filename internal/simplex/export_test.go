package simplex

import "context"

// CaptureProblem returns opt set to record, in *dst, the problem the
// next Solve is handed. The pivot golden builds its corpus through the
// lp layer's standard-form conversion and solves the captured problems
// directly.
func CaptureProblem(opt Options, dst **Problem) Options {
	opt.hooks = &testHooks{problem: func(p *Problem) { *dst = p }}
	return opt
}

// SolveTraced is Solve that also returns every step the pivot loop
// took, as (entering, leaving) pairs with leaving -1 for a bound flip.
func SolveTraced(ctx context.Context, p *Problem, opt Options) (*Solution, [][2]int, error) {
	var steps [][2]int
	opt.hooks = &testHooks{pivot: func(enter, leave int) {
		steps = append(steps, [2]int{enter, leave})
	}}
	sol, err := Solve(ctx, p, opt)
	return sol, steps, err
}

// DegenerateLP and RandomFeasibleLP expose the in-package generators
// to the pivot golden corpus.
var (
	DegenerateLP     = degenerateLP
	RandomFeasibleLP = randomFeasibleLP
)
