// streamcover — umbrella public header.
//
// A reproduction of "Towards Tight Bounds for the Streaming Set Cover
// Problem" (Har-Peled, Indyk, Mahabadi, Vakilian; PODS 2016): the
// iterSetCover trade-off algorithm, its geometric variant, every
// baseline of Figure 1.1, and executable versions of the paper's
// lower-bound constructions. See README.md for a tour and DESIGN.md for
// the module map.

#ifndef STREAMCOVER_STREAMCOVER_H_
#define STREAMCOVER_STREAMCOVER_H_

#include "baselines/dimv14.h"                 // IWYU pragma: export
#include "baselines/iterative_greedy.h"       // IWYU pragma: export
#include "baselines/threshold_greedy.h"       // IWYU pragma: export
#include "commlb/chasing.h"                   // IWYU pragma: export
#include "commlb/isc_to_setcover.h"           // IWYU pragma: export
#include "commlb/recover_bit.h"               // IWYU pragma: export
#include "commlb/set_disjointness.h"          // IWYU pragma: export
#include "commlb/sparse_lb.h"                 // IWYU pragma: export
#include "core/instance.h"                    // IWYU pragma: export
#include "core/iter_set_cover.h"              // IWYU pragma: export
#include "core/projection_store.h"            // IWYU pragma: export
#include "core/run_plan.h"                    // IWYU pragma: export
#include "core/run_record.h"                  // IWYU pragma: export
#include "core/solver_registry.h"             // IWYU pragma: export
#include "core/workload_registry.h"           // IWYU pragma: export
#include "geometry/canonical.h"               // IWYU pragma: export
#include "geometry/geom_generators.h"         // IWYU pragma: export
#include "geometry/geom_io.h"                 // IWYU pragma: export
#include "geometry/geom_set_cover.h"          // IWYU pragma: export
#include "geometry/primitives.h"              // IWYU pragma: export
#include "geometry/range_space.h"             // IWYU pragma: export
#include "offline/exact.h"                    // IWYU pragma: export
#include "offline/greedy.h"                   // IWYU pragma: export
#include "offline/lazy_greedy.h"              // IWYU pragma: export
#include "setsystem/binary_io.h"              // IWYU pragma: export
#include "setsystem/cover.h"                  // IWYU pragma: export
#include "setsystem/generators.h"             // IWYU pragma: export
#include "setsystem/io.h"                     // IWYU pragma: export
#include "setsystem/set_system.h"             // IWYU pragma: export
#include "setsystem/set_view.h"               // IWYU pragma: export
#include "setsystem/stream_generators.h"      // IWYU pragma: export
#include "shard/merge_stage.h"                // IWYU pragma: export
#include "shard/sharded_greedi.h"             // IWYU pragma: export
#include "shard/stream_partitioner.h"         // IWYU pragma: export
#include "shard/threshold_bucket.h"           // IWYU pragma: export
#include "stream/mmap_set_source.h"           // IWYU pragma: export
#include "stream/pass_scheduler.h"            // IWYU pragma: export
#include "stream/pipelined_scan.h"            // IWYU pragma: export
#include "stream/sampling.h"                  // IWYU pragma: export
#include "stream/set_source.h"                // IWYU pragma: export
#include "stream/set_stream.h"                // IWYU pragma: export
#include "stream/space_tracker.h"             // IWYU pragma: export
#include "util/cover_kernels.h"               // IWYU pragma: export

#endif  // STREAMCOVER_STREAMCOVER_H_
