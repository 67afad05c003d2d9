// A Synergy instance set up call by call, the same sequence
// systems::SynergyWrapper::Setup runs (sequential load), with each phase
// timed on the wall clock. The benchmark and its setup-parity test share it.
#pragma once

#include <cstddef>
#include <memory>

#include "common/status.h"
#include "hbase/cluster.h"
#include "synergy/synergy_system.h"
#include "tpcw/generator.h"

namespace synbench {

/// Wall seconds of each setup phase. `total_s` runs from an empty cluster
/// to loaded and major-compacted; `load_s` sums the Load calls only (tuple
/// generation between them is excluded).
struct SetupTimes {
  double total_s = 0.0;
  double build_s = 0.0;  // SynergySystem::Build + CreateStorage
  double load_s = 0.0;
  double compact_s = 0.0;  // Cluster::MajorCompactAll
  size_t tuples = 0;       // base tuples loaded
  uint64_t load_rpcs = 0;  // hbase_rpcs_total after the load
};

struct Instance {
  std::unique_ptr<synergy::hbase::Cluster> cluster;
  std::unique_ptr<synergy::core::SynergySystem> system;
  SetupTimes times;
  size_t store_bytes = 0;  // Cluster::TotalBytes when last measured
};

/// Builds, creates storage, loads `scale` through one session and
/// major-compacts, with the paper's Q_TPC-W roots and `txn_slaves` slaves.
synergy::StatusOr<std::unique_ptr<Instance>> SetUp(
    const synergy::tpcw::ScaleConfig& scale, int txn_slaves);

}  // namespace synbench
