// Benchmark harness: one benchmark family per experiment id (E-*) of
// the paper-experiments index in README.md, each reproducing one
// table, figure or claim of the paper.
// Custom metrics reported per op:
//
//	rounds     — distributed rounds under the paper's CONGEST accounting
//	lightness  — w(object)/w(MST)
//	stretch    — certified maximum stretch (where cheap enough)
//	edges      — object size
//
// Run: go test -bench=. -benchmem
package lightnet

import (
	"fmt"
	"testing"

	"lightnet/internal/congest"
	"lightnet/internal/euler"
	"lightnet/internal/graph"
	"lightnet/internal/lowerbound"
	"lightnet/internal/mst"
)

// benchGraph builds the standard workloads.
func benchGraph(kind string, n int, seed int64) *Graph {
	switch kind {
	case "geo":
		return RandomGeometric(n, 2, seed)
	case "dense":
		return CompleteGraph(n, 1000, seed)
	default:
		return ErdosRenyi(n, 12/float64(n), 50, seed)
	}
}

// BenchmarkTable1Spanner is E-T1.1: the §5 light spanner (Table 1 row 1).
func BenchmarkTable1Spanner(b *testing.B) {
	for _, kind := range []string{"er", "geo"} {
		for _, n := range []int{256, 512} {
			for _, k := range []int{2, 3} {
				b.Run(fmt.Sprintf("%s/n=%d/k=%d", kind, n, k), func(b *testing.B) {
					g := benchGraph(kind, n, 1)
					b.ResetTimer()
					var last *SpannerResult
					for i := 0; i < b.N; i++ {
						res, err := BuildLightSpanner(g, k, 0.25, WithSeed(int64(i+1)))
						if err != nil {
							b.Fatal(err)
						}
						last = res
					}
					b.ReportMetric(float64(last.Cost.Rounds), "rounds")
					b.ReportMetric(last.Lightness, "lightness")
					b.ReportMetric(float64(len(last.Edges)), "edges")
				})
			}
		}
	}
}

// BenchmarkTable1SLT is E-T1.2: the §4 SLT (Table 1 row 2).
func BenchmarkTable1SLT(b *testing.B) {
	for _, n := range []int{256, 1024} {
		for _, eps := range []float64{1, 0.5, 0.25} {
			b.Run(fmt.Sprintf("n=%d/eps=%.2f", n, eps), func(b *testing.B) {
				g := benchGraph("geo", n, 2)
				b.ResetTimer()
				var last *SLTResult
				for i := 0; i < b.N; i++ {
					res, err := BuildSLT(g, 0, eps, WithSeed(int64(i+1)))
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(float64(last.Cost.Rounds), "rounds")
				b.ReportMetric(last.Lightness, "lightness")
			})
		}
	}
	for _, gamma := range []float64{0.5, 0.25} {
		b.Run(fmt.Sprintf("inverse/gamma=%.2f", gamma), func(b *testing.B) {
			g := benchGraph("geo", 256, 2)
			b.ResetTimer()
			var last *SLTResult
			for i := 0; i < b.N; i++ {
				res, err := BuildSLTInverse(g, 0, gamma, WithSeed(int64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Lightness, "lightness")
		})
	}
}

// BenchmarkSLTMeasured runs the §4 SLT as the measured-mode engine
// pipeline (thirteen stages of genuine message passing on one
// congest.Pipeline), reporting allocations alongside the measured round
// count. The engine's own per-round data path stays allocation-free in
// the steady state (TestSteadyStateAllocs); the allocations here are the
// per-stage program state and the pipeline's outputs, so allocs/op
// should scale with n and stage count, not with rounds.
func BenchmarkSLTMeasured(b *testing.B) {
	for _, kind := range []string{"er", "geo"} {
		for _, n := range []int{256, 1024} {
			b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
				g := benchGraph(kind, n, 2)
				b.ReportAllocs()
				b.ResetTimer()
				var last *SLTResult
				for i := 0; i < b.N; i++ {
					res, err := BuildSLT(g, 0, 0.5, WithSeed(1), WithMeasured())
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(float64(last.Cost.Rounds), "rounds")
				b.ReportMetric(last.Lightness, "lightness")
			})
		}
	}
}

// BenchmarkTable1Net is E-T1.3: the §6 net (Table 1 row 3).
func BenchmarkTable1Net(b *testing.B) {
	for _, n := range []int{256, 512} {
		for _, delta := range []float64{0.5, 0.25} {
			b.Run(fmt.Sprintf("n=%d/delta=%.2f", n, delta), func(b *testing.B) {
				g := benchGraph("er", n, 3)
				scale := g.Eccentricity(0) / 6
				b.ResetTimer()
				var last *NetResult
				for i := 0; i < b.N; i++ {
					res, err := BuildNet(g, scale, delta, WithSeed(int64(i+1)))
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(float64(last.Cost.Rounds), "rounds")
				b.ReportMetric(float64(len(last.Points)), "netpoints")
				b.ReportMetric(float64(last.Iterations), "iterations")
			})
		}
	}
}

// BenchmarkTable1Doubling is E-T1.4: the §7 doubling spanner (Table 1
// row 4).
func BenchmarkTable1Doubling(b *testing.B) {
	for _, n := range []int{128, 256} {
		for _, eps := range []float64{0.5, 0.25} {
			b.Run(fmt.Sprintf("n=%d/eps=%.2f", n, eps), func(b *testing.B) {
				g := benchGraph("geo", n, 4)
				b.ResetTimer()
				var last *SpannerResult
				for i := 0; i < b.N; i++ {
					res, err := BuildDoublingSpanner(g, eps, WithSeed(int64(i+1)))
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(float64(last.Cost.Rounds), "rounds")
				b.ReportMetric(last.Lightness, "lightness")
				b.ReportMetric(float64(len(last.Edges)), "edges")
			})
		}
	}
}

// BenchmarkEulerTour is E-F3: the §3 tour — Õ(√n+D) rounds scaling.
func BenchmarkEulerTour(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := benchGraph("er", n, 5)
			d := g.HopDiameterApprox()
			edges, _, err := mst.Kruskal(g)
			if err != nil {
				b.Fatal(err)
			}
			tree, err := mst.NewTree(g, edges, 0)
			if err != nil {
				b.Fatal(err)
			}
			frags, err := mst.Decompose(tree, isqrtBench(n))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var rounds int64
			for i := 0; i < b.N; i++ {
				led := congest.NewLedger()
				if _, err := euler.Build(tree, frags, led, d); err != nil {
					b.Fatal(err)
				}
				rounds = led.Rounds()
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkFragments is E-F1: the §3.1 decomposition.
func BenchmarkFragments(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := benchGraph("er", n, 6)
			edges, _, err := mst.Kruskal(g)
			if err != nil {
				b.Fatal(err)
			}
			tree, err := mst.NewTree(g, edges, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var count, diam int
			for i := 0; i < b.N; i++ {
				f, err := mst.Decompose(tree, isqrtBench(n))
				if err != nil {
					b.Fatal(err)
				}
				count, diam = f.Count(), f.MaxHopDiam
			}
			b.ReportMetric(float64(count), "fragments")
			b.ReportMetric(float64(diam), "maxdiam")
		})
	}
}

// BenchmarkLowerBoundPsi is E-LB: the §8 reduction.
func BenchmarkLowerBoundPsi(b *testing.B) {
	for _, kind := range []string{"er", "hard"} {
		b.Run(kind, func(b *testing.B) {
			var g *Graph
			if kind == "hard" {
				g = HardInstance(256, 1000, 7)
			} else {
				g = benchGraph("er", 256, 7)
			}
			b.ResetTimer()
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := lowerbound.EstimatePsi(g, lowerbound.Options{Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				ratio = res.Ratio
			}
			b.ReportMetric(ratio, "psi-ratio")
		})
	}
}

// BenchmarkSLTTradeoff is E-KRY: one point of the trade-off curve per
// sub-benchmark.
func BenchmarkSLTTradeoff(b *testing.B) {
	g := benchGraph("geo", 512, 8)
	for _, eps := range []float64{1, 0.25} {
		b.Run(fmt.Sprintf("forward/eps=%.2f", eps), func(b *testing.B) {
			var light float64
			for i := 0; i < b.N; i++ {
				res, err := BuildSLT(g, 0, eps, WithSeed(int64(i+1)))
				if err != nil {
					b.Fatal(err)
				}
				light = res.Lightness
			}
			b.ReportMetric(light, "lightness")
		})
	}
	b.Run("baseline/KRY", func(b *testing.B) {
		var light float64
		for i := 0; i < b.N; i++ {
			res, err := BaselineKRYSLT(g, 0, 0.25)
			if err != nil {
				b.Fatal(err)
			}
			light = res.Lightness
		}
		b.ReportMetric(light, "lightness")
	})
}

// BenchmarkBaselineLightness is E-BS: [BS07] vs §5 on adversarial
// weights.
func BenchmarkBaselineLightness(b *testing.B) {
	n := 256
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(Vertex(i), Vertex((i+1)%n), 1)
	}
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j += 7 {
			g.MustAddEdge(Vertex(i), Vertex(j), float64(n))
		}
	}
	b.Run("baswana-sen", func(b *testing.B) {
		var light float64
		for i := 0; i < b.N; i++ {
			res, err := BaselineBaswanaSen(g, 2, WithSeed(int64(i+1)))
			if err != nil {
				b.Fatal(err)
			}
			light = res.Lightness
		}
		b.ReportMetric(light, "lightness")
	})
	b.Run("light-spanner", func(b *testing.B) {
		var light float64
		for i := 0; i < b.N; i++ {
			res, err := BuildLightSpanner(g, 2, 0.25, WithSeed(int64(i+1)))
			if err != nil {
				b.Fatal(err)
			}
			light = res.Lightness
		}
		b.ReportMetric(light, "lightness")
	})
}

// BenchmarkAblationBP is E-ABL(a): sequential vs two-phase break
// points.
func BenchmarkAblationBP(b *testing.B) {
	g := benchGraph("geo", 256, 9)
	for _, seq := range []bool{true, false} {
		name := "two-phase"
		if seq {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			var light float64
			for i := 0; i < b.N; i++ {
				var res *SLTResult
				var err error
				if seq {
					res, err = BaselineKRYSLT(g, 0, 0.5)
				} else {
					res, err = BuildSLT(g, 0, 0.5, WithSeed(int64(i+1)), WithExactSPT())
				}
				if err != nil {
					b.Fatal(err)
				}
				light = res.Lightness
			}
			b.ReportMetric(light, "lightness")
		})
	}
}

// BenchmarkEngine measures the genuine message-passing programs (E-ENG).
func BenchmarkEngine(b *testing.B) {
	grid := GridGraph(16, 16, 4, 10)
	er := benchGraph("er", 256, 10)
	b.Run("bfs", func(b *testing.B) {
		b.ReportAllocs()
		var rounds int
		for i := 0; i < b.N; i++ {
			_, _, s, err := congest.RunBFS(grid, 0, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			rounds = s.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("broadcast-lemma1", func(b *testing.B) {
		b.ReportAllocs()
		tokens := map[graph.Vertex][]int64{}
		for v := 0; v < 40; v++ {
			tokens[graph.Vertex(v*6)] = []int64{int64(1000 + v)}
		}
		var rounds int
		for i := 0; i < b.N; i++ {
			_, s, err := congest.RunBroadcastAll(grid, tokens, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			rounds = s.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("mst", func(b *testing.B) {
		b.ReportAllocs()
		var rounds int
		for i := 0; i < b.N; i++ {
			_, s, err := congest.RunMST(er, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			rounds = s.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("luby-mis", func(b *testing.B) {
		b.ReportAllocs()
		var phases int
		for i := 0; i < b.N; i++ {
			_, s, err := congest.RunLubyMIS(er, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			phases = s.Phases
		}
		b.ReportMetric(float64(phases), "phases")
	})
	b.Run("en17-spanner", func(b *testing.B) {
		b.ReportAllocs()
		var edges int
		for i := 0; i < b.N; i++ {
			sel, _, err := congest.RunEN17Spanner(er, 3, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			edges = len(sel)
		}
		b.ReportMetric(float64(edges), "edges")
	})
}

func isqrtBench(n int) int {
	x := 1
	for x*x < n {
		x++
	}
	return x
}
