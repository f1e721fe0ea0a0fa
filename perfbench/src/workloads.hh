/**
 * @file
 * The four perfbench workloads. Each runs in its own process and fills
 * one Outcome: every end-to-end metric (untraced), every per-layer
 * metric it exercises, and the correctness checks.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "common.hh"

namespace perfbench {

/** MegaFleet, 100k channels, 96 MiB shard cache, 1000 req/s. */
Outcome runFleetWarm(const Options &opt);

/** MegaFleet, 100k channels, 16 MiB shard cache, 200 req/s. */
Outcome runFleetCold(const Options &opt);

/** ChannelScheduler + FleetService over 64 physical wires, 200 req/s,
 *  with a wire tap staged in a request-free prefix. */
Outcome runBusService(const Options &opt);

/** GenuineImpostorStudy on the Fig. 7 population under vibration and
 *  under EMI. */
Outcome runPaperStudy(const Options &opt);

/**
 * End a traced run: record traced-minus-untraced for each host-timed
 * end-to-end metric present in both `out` and `traced`, as
 * `trace.overhead.<name>`, count the spans, and write them out.
 */
void finishTrace(const Options &opt, const Outcome &traced,
                 const Tracer &tracer, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
