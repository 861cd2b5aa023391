// The builder's contract for the PR that defines the benchmark wants a
// compiled benchmark to be "a package of its own in the benchmark's
// directory, with its own build file", so bench/ is a nested module and not
// a package of module adept, as ISSUE 13 asked. The price: the root
// `go build ./...`, `go test ./...` and `go vet ./...` skip it; its tests
// run with `cd bench && go test ./...` (README, "Where this departs").
// The replace lets it import adept/internal/...: the import path
// adept/bench is inside adept/, which is what the internal rule checks.
// No third-party requirements, like the parent module.
module adept/bench

go 1.24

require adept v0.0.0

replace adept => ../
