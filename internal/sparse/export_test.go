package sparse

// Test oracles and helpers for the external test package, which builds the
// estimator's real gain matrices (grid and meas import sparse).
var (
	MinDegreeReference = minDegreeReference
	FillOf             = fillOf
	ShuffleRows        = shuffleRows
	LDLMatchesOracle   = ldlMatchesOracle
	AnalysisMatches    = analysisMatchesOracle
	RandomSPD          = randomSPD
	GainFixture        = gainFixture
	WalkingRefresh     = walkingRefresh
)

// LDLNumerics returns the factor's own L values and D.
func LDLNumerics(f *LDLFactor) (lVal, d []float64) { return f.lVal, f.d }

// LDLSplit returns the split RefreshPool runs: the columns of each part,
// then of the top, and where each part starts (the top being part
// len(ptr)−2); nil before a split is made.
func LDLSplit(f *LDLFactor) (cols []int32, ptr []int) { return f.splitCols, f.splitPtr }

// LDLPerm returns the factor's ordering, perm[new] = old.
func LDLPerm(f *LDLFactor) []int { return f.perm }
