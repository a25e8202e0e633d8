// The benchmark is a module of its own so that it builds from its own
// directory; the path prefix "solros/" is what lets it import the
// simulator's internal packages through the replace directive.
module solros/benchmark

go 1.22

require solros v0.0.0

replace solros => ../
