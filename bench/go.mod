// The benchmark is a module of its own so that it builds, vets and tests
// apart from the program it measures. Its import path sits under the
// program's module path, which is what lets bench/layers.go import the
// repro/internal/... packages it pins.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
