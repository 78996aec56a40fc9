package sparse

// Test oracles and helpers for the external test package, which builds the
// estimator's real gain matrices (grid and meas import sparse).
var (
	MinDegreeReference = minDegreeReference
	FillOf             = fillOf
	ShuffleRows        = shuffleRows
	LDLMatchesOracle   = ldlMatchesOracle
)
