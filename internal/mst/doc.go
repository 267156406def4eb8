// Package mst provides minimum spanning trees and the [KP98]-style
// fragment machinery of §3: a centralized Kruskal oracle, rooted-tree
// utilities, and the decomposition of the MST into O(√n) base fragments
// of hop-diameter O(√n) together with the fragment tree T′. The
// distributed MST itself runs on the congest engine
// (congest.RunMST, the measured pipelines' mst stage): fragments merged
// up to ⌈√n⌉ vertices, then a pipelined upcast of the inter-fragment
// edges over a BFS tree, in Õ(√n + D) rounds. Its output is Kruskal's
// tree, edge for edge.
//
// The fragment decomposition is the substrate of every sublinear-round
// construction in the paper: pipelining inside a fragment costs its
// hop-diameter, and the O(√n) fragment count bounds the global
// coordination, giving the Õ(√n + D) shape of §3–§7.
package mst
