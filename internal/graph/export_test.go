package graph

// Test hooks for the external graph_test package, whose tests build real
// point sets with packages that themselves import graph.
var (
	MakeCSRReference = makeCSRReference
	CSRDiff          = csrDiff
)
