// Package experiments is the evaluation layer: the scenario registry
// that names every workload the repo can generate, the reproducible
// grid pipeline behind `lightnet bench`.
//
// # Scenario registry
//
// scenarios.go maps one-line spec strings to generator closures:
//
//	er                 geometric:dim=3        ba:m=4,maxw=10
//	knn:k=6            planted:k=8,pin=0.2    edgelist:path=road.txt
//
// A spec is a scenario name plus optional key=val parameters; defaults
// are merged and unknown names or keys are rejected at validation
// time. ParseWorkload resolves a spec, BuildWorkload generates the
// graph from (spec, n, seed), and Scenarios lists the catalog (full
// documentation with doubling dimensions and edge-count asymptotics:
// docs/SCENARIOS.md). The same specs are accepted by the grid JSON
// "workloads" array, by `lightnet -graph`, and by
// `cmd/benchengine -scenario`, so every experiment cell is
// reproducible from one line. Parameterless legacy specs ("er",
// "geometric", "grid", "complete", "hard", "path") rebuild the
// pre-registry pipeline graphs bit for bit.
//
// # Grid pipeline
//
// grid.go defines the JSON experiment-grid format — a base seed,
// repeats, size and workload sweeps, and per-construction knobs — and
// RunGrid executes every cell into a run folder: grid.json (resolved,
// for provenance), csv/ with one CSV per experiment, logs/run.log, and
// manifest.txt, the per-cell checkpoint log. Each finished cell is
// flushed to its CSV before its manifest line is appended, so a killed
// run leaves at most one orphan CSV row; RunGridResume (`lightnet
// bench -resume`) prunes orphans, skips manifest-recorded cells, and
// refuses a folder whose grid.json differs from the requested grid.
// Measured specs may carry a "faults" block plus "stage_retries"
// (congest.FaultPlan — seeded message faults, crash schedules,
// partitions); their rows populate the dropped/duplicated/delayed/
// retries/survivors columns deterministically.
// Re-running the same grid reproduces identical CSV bytes except the
// trailing wall-time column; CI enforces this for the scenario smoke
// grid (examples/grids/scenarios.json) and the fault-injection grid
// (examples/grids/chaos.json).
//
// # Paper tables
//
// The paper's experiment tables are grids like any other: the
// committed examples/grids/paper*.json files reproduce the Table 1 rows
// (E-T1.1..E-T1.4), the trade-off curve (E-KRY), the complete-graph
// ablations (E-ABL-b, E-ABL-d) and the elementary engine programs
// (E-ENG). The experiments that need inputs or knobs a grid does not
// have (E-F1, E-F3, E-LB, E-BS, E-ABL-a, E-ABL-c) are the benchmark
// families of the root package's bench_test.go and the tests named
// next to them in README.md's "Paper experiments" index.
package experiments
