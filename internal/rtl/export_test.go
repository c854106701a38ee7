package rtl

// OptimizeMuxListsMap exposes the map-based oracle to the external test
// package, which checks it against mfsa-synthesized ALUs.
var OptimizeMuxListsMap = optimizeMuxListsMap
