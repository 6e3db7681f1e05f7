package whatif

import (
	"testing"

	"repro/internal/workload"
)

// Exports for the external whatif_test package, which runs the backend
// contract tests against both this package and the whatiftest oracle.

// CostCap is the sanitizer's NaN/+Inf clamp.
const CostCap = costCap

// BadSource is the sanitization-boundary source of sanitize_test.go.
type BadSource = badSource

// SmallWorkload is the package tests' two-table generated workload.
func SmallWorkload(t *testing.T) *workload.Workload { return testWorkload(t) }
