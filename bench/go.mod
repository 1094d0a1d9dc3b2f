// The repository benchmark is a module of its own so that the root
// module's build and tests neither contain nor depend on it. The
// "ccncoord/" prefix of the module path is what lets it import the
// parent's internal packages.
module ccncoord/bench

go 1.24

require ccncoord v0.0.0

replace ccncoord => ../
