// Copyright (c) 2026 madnet authors. All rights reserved.
//
// madnet_run — run any madnet scenario from the command line.
//
//   madnet_run --method=optimized --peers=300 --reps=3
//   madnet_run --method=gossip --peers=100 --duration=400 --seed=9
//   madnet_run --method=flooding --loss=0.2 --collisions
//   madnet_run --method=optimized --dump_traces=traces.txt
//
// Prints the paper's three metrics (multi-seed mean ± sd) as a table.

#include <cstdio>
#include <fstream>
#include <string>

#include "mobility/trace_io.h"
#include "scenario/config_io.h"
#include "exec/replication.h"
#include "scenario/multi_ad.h"
#include "scenario/scenario.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/table.h"

namespace madnet {
namespace {

using exec::Aggregate;
using exec::RunReplicated;
using scenario::Method;
using scenario::MethodName;
using scenario::ScenarioConfig;

[[nodiscard]] StatusOr<Method> ParseMethod(const std::string& name) {
  if (name == "flooding") return Method::kFlooding;
  if (name == "gossip") return Method::kGossip;
  if (name == "optimized1") return Method::kOptimized1;
  if (name == "optimized2") return Method::kOptimized2;
  if (name == "optimized") return Method::kOptimized;
  if (name == "exchange") return Method::kResourceExchange;
  return Status::InvalidArgument(
      "unknown method '" + name +
      "' (use flooding|gossip|optimized1|optimized2|optimized|exchange)");
}

int Run(int argc, char** argv) {
  FlagSet flags;
  flags.Define("method", "optimized",
               "flooding|gossip|optimized1|optimized2|optimized|exchange");
  flags.Define("peers", "300", "number of mobile peers");
  flags.Define("mobility", "waypoint", "waypoint|manhattan|hotspot");
  flags.Define("area", "5000", "square area side, metres");
  flags.Define("radius", "1000", "initial advertising radius R, metres");
  flags.Define("duration", "800", "initial advertising duration D, seconds");
  flags.Define("sim_time", "2000", "simulated seconds");
  flags.Define("issue_time", "60", "ad issue time, seconds");
  flags.Define("speed", "10", "mean peer speed, m/s");
  flags.Define("speed_delta", "5", "speed spread (uniform mean +- delta)");
  flags.Define("round", "5", "gossiping round time, seconds");
  flags.Define("alpha", "0.5", "probability drop parameter, (0,1)");
  flags.Define("beta", "0.5", "radius decay parameter, (0,1)");
  flags.Define("dis", "250", "Optimization-1 annulus width DIS, metres");
  flags.Define("cache", "10", "ad cache capacity k");
  flags.Define("range", "250", "transmission range, metres");
  flags.Define("loss", "0", "per-receiver random loss probability");
  flags.Define("collisions", "false", "enable the collision model");
  flags.Define("issuer_offline", "false",
               "gossip issuer goes offline after seeding the ad");
  flags.Define("ranking", "false", "enable FM popularity ranking");
  flags.Define("seed", "1", "base random seed");
  flags.Define("reps", "3", "replications (seeds seed..seed+reps-1)");
  flags.Define("jobs", "1",
               "worker threads across replications (<= 0 = hardware "
               "concurrency); results stay byte-identical at any value");
  flags.Define("dump_traces", "",
               "write every node's mobility trace to this file and exit");
  flags.Define("config", "",
               "load a 'key = value' scenario file first; explicit flags "
               "override it");
  flags.Define("validate-only", "false",
               "validate --config (single- or multi-ad) and exit: 0 = "
               "valid, 2 = invalid with a diagnostic naming the key");
  flags.Define("validate_only", "false", "alias for --validate-only");
  flags.Define("save_config", "",
               "write the effective configuration to this file and exit");
  flags.Define("json", "false", "emit results as JSON instead of a table");
  flags.Define("help", "false", "print this help");

  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage("madnet_run").c_str());
    return 2;
  }
  if (*flags.GetBool("help")) {
    std::fputs(flags.Usage("madnet_run").c_str(), stdout);
    return 0;
  }

  if (*flags.GetBool("validate-only") || *flags.GetBool("validate_only")) {
    // Contract check only: the file is validated exactly as the corpus CI
    // job and the smoke tests see it; other flags are ignored.
    const std::string path = flags.GetString("config");
    if (path.empty()) {
      std::fprintf(stderr, "--validate-only requires --config=<file>\n");
      return 2;
    }
    scenario::MultiAdConfig loaded;
    bool is_multi_ad = false;
    Status valid = scenario::LoadScenarioFileAuto(path, &loaded,
                                                  &is_multi_ad);
    if (!valid.ok()) {
      std::fprintf(stderr, "invalid scenario: %s\n",
                   valid.ToString().c_str());
      return 2;
    }
    std::printf("OK: %s (%s scenario)\n", path.c_str(),
                is_multi_ad ? "multi-ad" : "single-ad");
    return 0;
  }

  auto method = ParseMethod(flags.GetString("method"));
  if (!method.ok()) {
    std::fprintf(stderr, "%s\n", method.status().ToString().c_str());
    return 2;
  }

  ScenarioConfig config;
  const std::string config_path = flags.GetString("config");
  if (!config_path.empty()) {
    Status loaded = scenario::LoadConfigFile(config_path, &config);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.ToString().c_str());
      return 2;
    }
  }
  // Explicit flags override the file (defaults only apply when unset).
  if (config_path.empty() || flags.IsSet("method")) config.method = *method;
  if (config_path.empty() || flags.IsSet("mobility")) {
    Status applied = scenario::ApplyConfigKey(
        "mobility", flags.GetString("mobility"), &config);
    if (!applied.ok()) {
      std::fprintf(stderr, "--mobility: %s\n", applied.ToString().c_str());
      return 2;
    }
  }
  // Apply flags through the same key machinery the file uses; with a
  // config file present, only explicitly-set flags override it.
  for (const char* key : {"peers", "area", "radius", "duration", "sim_time",
                          "issue_time", "speed", "speed_delta", "round",
                          "alpha", "beta", "dis", "cache", "range", "loss",
                          "collisions", "ranking", "issuer_offline", "seed"}) {
    if (!config_path.empty() && !flags.IsSet(key)) continue;
    Status applied =
        scenario::ApplyConfigKey(key, flags.GetString(key), &config);
    if (!applied.ok()) {
      std::fprintf(stderr, "--%s: %s\n", key,
                   applied.ToString().c_str());
      return 2;
    }
  }
  // The speed keys auto-raise medium.max_speed_mps inside ApplyConfigKey,
  // so an explicit max_speed from the config file survives flag overrides.
  Status valid = config.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 valid.ToString().c_str());
    return 2;
  }

  const std::string save_path = flags.GetString("save_config");
  if (!save_path.empty()) {
    std::ofstream out(save_path, std::ios::trunc);
    out << scenario::SaveConfigText(config);
    out.close();
    if (out.fail()) {
      std::fprintf(stderr, "cannot write %s\n", save_path.c_str());
      return 1;
    }
    std::printf("wrote config to %s\n", save_path.c_str());
    return 0;
  }

  const std::string trace_path = flags.GetString("dump_traces");
  if (!trace_path.empty()) {
    scenario::Scenario scenario(config);
    Status saved =
        SaveTraces(trace_path, scenario.RecordTraces(config.sim_time_s));
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("wrote %d traces to %s\n", config.num_peers + 1,
                trace_path.c_str());
    return 0;
  }

  const int reps = static_cast<int>(*flags.GetInt("reps"));
  const int jobs = static_cast<int>(*flags.GetInt("jobs"));
  Aggregate aggregate = RunReplicated(config, reps, jobs);

  if (*flags.GetBool("json")) {
    JsonWriter json;
    json.BeginObject();
    json.Key("method");
    json.Value(MethodName(config.method));
    json.Key("peers");
    json.Value(config.num_peers);
    json.Key("replications");
    json.Value(reps);
    json.Key("seed");
    json.Value(static_cast<uint64_t>(config.seed));
    auto emit = [&](const char* name, const stats::Summary& s) {
      json.Key(name);
      json.BeginObject();
      json.Key("mean");
      json.Value(s.Mean());
      json.Key("sd");
      json.Value(s.Stddev());
      json.Key("ci95");
      json.Value(s.ConfidenceInterval95());
      json.Key("min");
      json.Value(s.Min());
      json.Key("max");
      json.Value(s.Max());
      json.EndObject();
    };
    emit("delivery_rate_pct", aggregate.delivery_rate_percent);
    emit("delivery_time_s", aggregate.mean_delivery_time_s);
    emit("messages", aggregate.messages);
    emit("peers_passed", aggregate.peers_passed);
    if (config.gossip.ranking) emit("final_rank", aggregate.final_rank);
    json.EndObject();
    std::printf("%s\n", json.TakeString().c_str());
    return 0;
  }

  std::printf("%s — %d peers, %d replication(s), seed %llu\n",
              MethodName(config.method), config.num_peers, reps,
              static_cast<unsigned long long>(config.seed));
  Table table({"metric", "mean", "sd", "min", "max"});
  auto add = [&](const char* name, const stats::Summary& s, int digits) {
    table.Row(name, Table::Num(s.Mean(), digits),
              Table::Num(s.Stddev(), digits), Table::Num(s.Min(), digits),
              Table::Num(s.Max(), digits));
  };
  add("delivery rate (%)", aggregate.delivery_rate_percent, 2);
  add("delivery time (s)", aggregate.mean_delivery_time_s, 2);
  add("messages", aggregate.messages, 0);
  add("peers passed", aggregate.peers_passed, 0);
  if (config.gossip.ranking) add("final rank", aggregate.final_rank, 1);
  table.Print();
  return 0;
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) { return madnet::Run(argc, argv); }
