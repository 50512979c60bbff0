// Copyright (c) 2026 madnet authors. All rights reserved.

#include "exec/replication.h"

#include <memory>
#include <utility>
#include <vector>

#include "exec/parallel_for.h"
#include "obs/run_context.h"
#include "obs/session.h"
#include "scenario/config_io.h"
#include "util/logging.h"

namespace madnet::exec {

using scenario::RunResult;
using scenario::SaveConfigText;
using scenario::ScenarioConfig;

Aggregate RunReplicated(const ScenarioConfig& base, int replications,
                        int jobs) {
  MADNET_DCHECK_GE(replications, 1);
  obs::Session* session = obs::Session::Get();

  // Each replication is a self-contained simulation (own Simulator, Medium
  // and RNG stream derived from its seed), so seeds can run concurrently
  // without any sharing. Results land in seed-indexed slots. When an
  // observability session is installed, each replication also fills its own
  // RunContext (no cross-thread contention), handed to the session below
  // with a seed-derived sort key so flushed artifacts are byte-identical at
  // any `jobs`.
  std::vector<RunResult> results(static_cast<size_t>(replications));
  std::vector<std::unique_ptr<obs::RunContext>> contexts(
      session != nullptr ? results.size() : 0);
  ParallelFor(
      ResolveJobs(jobs), results.size(), [&](size_t i) {
        ScenarioConfig config = base;
        config.seed = base.seed + static_cast<uint64_t>(i);
        auto run = [&](obs::RunContext* obs) {
          return scenario::Scenario(config, obs).Run();
        };
        if (session != nullptr) {
          auto context =
              std::make_unique<obs::RunContext>(session->options().trace);
          context->ArmCrashDump(config.seed);
          // Per-replication wall clock, surfaced via the manifest's
          // "replication" phase (seconds summed, count = replications).
          obs::PhaseTimer replication_timer(context.get(), "replication");
          results[i] = run(context.get());
          replication_timer.Stop();
          contexts[i] = std::move(context);
        } else {
          results[i] = run(nullptr);
        }
      });
  if (session != nullptr) {
    for (size_t i = 0; i < contexts.size(); ++i) {
      ScenarioConfig config = base;
      config.seed = base.seed + static_cast<uint64_t>(i);
      session->AddRun(SaveConfigText(config), std::move(contexts[i]));
    }
  }

  // Merge strictly in seed order: Summary::Add sequences are then the same
  // as the serial path's, so aggregates are bit-identical for any jobs.
  // Precondition: every seed-indexed slot was filled by exactly one worker.
  MADNET_DCHECK_EQ(results.size(), static_cast<size_t>(replications));
  Aggregate aggregate;
  for (const RunResult& result : results) {
    aggregate.delivery_rate_percent.Add(result.DeliveryRatePercent());
    if (result.report.peers_delivered > 0) {
      aggregate.mean_delivery_time_s.Add(result.MeanDeliveryTime());
    }
    aggregate.messages.Add(static_cast<double>(result.Messages()));
    aggregate.peers_passed.Add(
        static_cast<double>(result.report.peers_passed));
    aggregate.final_rank.Add(result.final_rank);
  }
  return aggregate;
}

}  // namespace madnet::exec
