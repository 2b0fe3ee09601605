// §4 — the geometric results.
//
// Part A (Figure 1.2): the two-line construction carries h^2 = (n/2)^2
// DISTINCT 2-point rectangles, so storing one projection per distinct
// shallow range is Theta(n^2); the anchored-split canonical family
// (Lemma 4.2) collapses it to O(n). We print both counts and their
// growth slopes.
//
// Part B (Theorem 4.6): algGeomSC, streaming each planted disk /
// rectangle / fat-triangle instance's range space: O(1) passes,
// near-linear space in n (slope ~1 even though m = 8n grows too),
// O(rho)-approximation.

#include <cmath>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "geometry/canonical.h"
#include "geometry/geom_generators.h"
#include "geometry/geom_set_cover.h"
#include "geometry/range_space.h"
#include "stream/pass_scheduler.h"
#include "stream/set_stream.h"
#include "util/stats.h"
#include "util/table.h"

namespace streamcover {
namespace {

void PartA() {
  benchutil::Banner(
      "Figure 1.2 — Theta(n^2) distinct shallow rectangles vs the "
      "canonical family (Lemma 4.2)");
  Table table({"n (points)", "distinct 2-point rects", "canonical sets",
               "canonical words", "quadratic/canonical"});
  std::vector<double> xs, raw, canon;
  for (uint32_t n : {64u, 128u, 256u, 512u}) {
    GeomInstance inst = GenerateFigure12(n);
    const uint32_t h = n / 2;
    RectSplitter splitter(inst.points);
    TraceStore store;
    std::set<std::vector<uint32_t>> distinct;
    for (uint32_t i = 0; i < h * h; ++i) {
      const Rect& rect = std::get<Rect>(inst.shapes[i]);
      distinct.insert(TraceOf(inst.shapes[i], inst.points));
      for (const auto& piece : splitter.Decompose(rect)) {
        store.Insert(piece);
      }
    }
    xs.push_back(n);
    raw.push_back(static_cast<double>(distinct.size()));
    canon.push_back(static_cast<double>(store.size()));
    table.AddRow({Table::Fmt(n), Table::Fmt(distinct.size()),
                  Table::Fmt(store.size()),
                  Table::Fmt(store.total_words()),
                  Table::Fmt(static_cast<double>(distinct.size()) /
                                 static_cast<double>(store.size()),
                             1)});
  }
  table.Print(std::cout);
  benchutil::Note("\ngrowth slope (log-log vs n): distinct traces = " +
                  Table::Fmt(LogLogSlope(xs, raw), 2) +
                  " (quadratic), canonical = " +
                  Table::Fmt(LogLogSlope(xs, canon), 2) + " (linear)");
}

const char* ClassName(ShapeClass cls) {
  switch (cls) {
    case ShapeClass::kDisk:
      return "disks";
    case ShapeClass::kRect:
      return "rects";
    case ShapeClass::kFatTriangle:
      return "fat-triangles";
  }
  return "?";
}

void PartB() {
  benchutil::Banner(
      "Theorem 4.6 — algGeomSC: O(1) passes, O~(n) space, "
      "O(rho)-approximation (m = 8n, planted OPT = 10, delta = 1/4)");
  for (ShapeClass cls : {ShapeClass::kDisk, ShapeClass::kRect,
                         ShapeClass::kFatTriangle}) {
    Table table({"n", "m", "cover/OPT", "passes", "space max-guess",
                 "space/n", "canonical sets (peak)"});
    std::vector<double> xs, ys;
    for (uint32_t n : {512u, 1024u, 2048u}) {
      RunningStats ratio, passes, space, canonical;
      for (uint64_t seed = 1; seed <= 2; ++seed) {
        Rng rng(seed);
        GeomPlantedOptions gen;
        gen.num_points = n;
        gen.num_shapes = 8 * n;
        gen.cover_size = 10;
        gen.shape_class = cls;
        GeomInstance inst = GeneratePlantedGeom(gen, rng);
        const GeomDataset geometry{inst.points, inst.shapes};
        const SetSystem ranges = BuildRangeSpace(inst.points, inst.shapes);
        SetStream stream(&ranges);
        PassScheduler scheduler(stream);
        GeomSetCoverOptions options;
        options.delta = 0.25;
        options.sample_constant = 0.05;
        options.seed = seed;
        GeomStreamingResult r = AlgGeomSC(scheduler, geometry, options);
        if (!r.success) continue;
        ratio.Add(static_cast<double>(r.cover.size()) /
                  static_cast<double>(inst.planted_cover.size()));
        passes.Add(static_cast<double>(r.passes));
        space.Add(static_cast<double>(r.space_words_max_guess));
        uint64_t peak_canonical = 0;
        for (const auto& diag : r.diagnostics) {
          peak_canonical = std::max(peak_canonical, diag.canonical_sets);
        }
        canonical.Add(static_cast<double>(peak_canonical));
      }
      xs.push_back(n);
      ys.push_back(space.mean());
      table.AddRow({Table::Fmt(n), Table::Fmt(8 * n),
                    Table::Fmt(ratio.mean(), 2),
                    Table::Fmt(passes.mean(), 1),
                    Table::Fmt(static_cast<uint64_t>(space.mean())),
                    Table::Fmt(space.mean() / n, 2),
                    Table::Fmt(static_cast<uint64_t>(canonical.mean()))});
    }
    benchutil::Note(std::string("### ") + ClassName(cls));
    table.Print(std::cout);
    benchutil::Note("space growth slope vs n (target ~1, near-linear): " +
                    Table::Fmt(LogLogSlope(xs, ys), 2) + "\n");
  }
}

}  // namespace
}  // namespace streamcover

int main() {
  streamcover::PartA();
  streamcover::PartB();
  return 0;
}
