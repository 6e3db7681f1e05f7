// Package lp provides a self-contained linear-programming toolkit: a sparse
// model builder, a sparse revised simplex solver (bounded variables,
// product-form basis updates with periodic refactorization, primal and dual
// iterations), and a warm-started parallel branch-and-bound mixed-integer
// layer with optimality-gap and deadline control.
//
// It is the stand-in for the commercial solver (CPLEX via NEOS) that the
// paper uses to run CoPhy's integer linear program (5)-(8). Child nodes of
// the branch-and-bound re-solve from the parent basis via dual simplex
// (branching changes only variable bounds, which preserves dual
// feasibility), so node throughput is dominated by a handful of pivots per
// node rather than a from-scratch solve. The original dense two-phase
// tableau solver is retained in test code (dense_test.go) as the
// differential-testing and benchmarking baseline.
package lp

import "fmt"

// Sense is a constraint comparison direction.
type Sense int

const (
	// LE is <=.
	LE Sense = iota
	// GE is >=.
	GE
	// EQ is =.
	EQ
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Constraint is a sparse linear constraint sum(Vals_i * x_Cols_i) <Sense> RHS.
// Duplicate column entries accumulate.
type Constraint struct {
	Cols  []int32
	Vals  []float64
	Sense Sense
	RHS   float64
}

// Model is a minimization problem over non-negative variables.
type Model struct {
	obj     []float64
	upper   []float64 // +Inf when unbounded above
	integer []bool
	names   []string
	cons    []Constraint
	nnz     int
	// objConst is added to every objective value SolveMIP reports.
	objConst float64
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// AddVar adds a variable with the given objective coefficient, name, upper
// bound (use math.Inf(1) for none) and integrality flag, returning its index.
// All variables are bounded below by zero.
func (m *Model) AddVar(obj float64, name string, upper float64, integer bool) int {
	m.obj = append(m.obj, obj)
	m.upper = append(m.upper, upper)
	m.integer = append(m.integer, integer)
	m.names = append(m.names, name)
	return len(m.obj) - 1
}

// AddConstraintCols appends a constraint in sparse (column, value) form.
// The slices are retained without copying; callers must not modify them
// afterwards. This is the allocation-lean path for large models (CoPhy's
// per-(query, candidate) rows).
func (m *Model) AddConstraintCols(cols []int32, vals []float64, sense Sense, rhs float64) {
	m.cons = append(m.cons, Constraint{Cols: cols, Vals: vals, Sense: sense, RHS: rhs})
	m.nnz += len(cols)
}

// SetObjConstant sets a constant term of the objective. SolveMIP adds it to
// every objective it reports (incumbent, bound, root relaxation), so its
// relative gap is measured on the whole objective, constant included.
func (m *Model) SetObjConstant(c float64) { m.objConst = c }

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.obj) }

// NumConstraints returns the number of constraints (finite upper bounds
// excluded — they are handled as simple bounds by the solver).
func (m *Model) NumConstraints() int { return len(m.cons) }

// Name returns the name of variable i.
func (m *Model) Name(i int) string { return m.names[i] }

// Integer reports whether variable i is integral.
func (m *Model) Integer(i int) bool { return m.integer[i] }

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means no feasible point exists.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
	// IterationLimit means the simplex hit its iteration cap or deadline.
	IterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of an LP solve.
type Solution struct {
	Status     Status
	X          []float64
	Objective  float64
	Iterations int
	// RowDuals, populated on Optimal solves, holds one dual multiplier per
	// model constraint in original (unscaled) row units, with the sign
	// convention of "reduced cost = obj − yᵀA": for this minimization a
	// binding ≤ row has y ≤ 0 and a binding ≥ row has y ≥ 0. Callers use
	// these for column-generation pricing and Lagrangian bounds.
	RowDuals []float64
}
