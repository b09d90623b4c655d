// The historic root of any-k (Section 4 of the paper): k-shortest paths,
// solved by both lineages -- REA (recursive enumeration) and
// Lawler-Murty deviations -- on a layered DAG.
//
//   ./build/examples/k_shortest_paths [layers] [width] [k]
#include <cstdio>
#include <cstdlib>

#include "src/kshortest/dag.h"
#include "src/kshortest/kshortest.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

using namespace topkjoin;

int main(int argc, char** argv) {
  const size_t layers = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 6;
  const size_t width = argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 50;
  const size_t k = argc > 3 ? static_cast<size_t>(std::atoll(argv[3])) : 5;

  Rng rng(7);
  const size_t n = layers * width + 2;
  Dag dag(n);
  const size_t source = n - 2, target = n - 1;
  auto node = [&](size_t l, size_t i) { return l * width + i; };
  for (size_t i = 0; i < width; ++i) {
    dag.AddEdge(source, node(0, i), rng.NextDouble());
    dag.AddEdge(node(layers - 1, i), target, rng.NextDouble());
  }
  for (size_t l = 0; l + 1 < layers; ++l) {
    for (size_t i = 0; i < width; ++i) {
      for (size_t t = 0; t < 4; ++t) {
        dag.AddEdge(node(l, i),
                    node(l + 1, rng.NextBounded(width)), rng.NextDouble());
      }
    }
  }

  Timer timer;
  const auto rea = KShortestPathsRea(dag, source, target, k);
  const double rea_ms = timer.ElapsedSeconds() * 1e3;
  timer.Restart();
  const auto lawler = KShortestPathsLawler(dag, source, target, k);
  const double lawler_ms = timer.ElapsedSeconds() * 1e3;

  std::printf("DAG: %zu layers x %zu nodes; %zu-shortest paths\n", layers,
              width, k);
  bool agree = rea.size() == lawler.size();
  for (size_t i = 0; i < rea.size(); ++i) {
    const bool same = i < lawler.size() && rea[i].weight == lawler[i].weight;
    agree = agree && same;
    std::printf("  #%zu  weight %.4f (%zu hops)   [REA == Lawler: %s]\n",
                i + 1, rea[i].weight, rea[i].nodes.size() - 1,
                same ? "yes" : "NO!");
  }
  std::printf("REA: %.2f ms, Lawler: %.2f ms\n", rea_ms, lawler_ms);
  if (!agree) {
    std::fprintf(stderr, "REA and Lawler disagree (%zu vs %zu paths)\n",
                 rea.size(), lawler.size());
    return 1;
  }
  return 0;
}
