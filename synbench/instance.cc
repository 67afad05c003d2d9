#include "instance.h"

#include <chrono>

#include "tpcw/schema.h"
#include "tpcw/workload.h"

namespace synbench {

using namespace synergy;
using Clock = std::chrono::steady_clock;

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

StatusOr<std::unique_ptr<Instance>> SetUp(const tpcw::ScaleConfig& scale,
                                          int txn_slaves) {
  auto inst = std::make_unique<Instance>();
  SetupTimes& t = inst->times;
  const Clock::time_point start = Clock::now();
  inst->cluster = std::make_unique<hbase::Cluster>();
  inst->system = std::make_unique<core::SynergySystem>(
      inst->cluster.get(),
      core::SynergyConfig{.roots = tpcw::Roots(), .txn_slaves = txn_slaves});

  const Clock::time_point build = Clock::now();
  SYNERGY_RETURN_IF_ERROR(
      inst->system->Build(tpcw::BuildCatalog(), tpcw::BuildWorkload()));
  SYNERGY_RETURN_IF_ERROR(inst->system->CreateStorage());
  t.build_s = SecondsSince(build);

  hbase::Session load(inst->cluster.get());
  SYNERGY_RETURN_IF_ERROR(tpcw::GenerateDatabase(
      scale, [&](const std::string& relation, const exec::Tuple& tuple) {
        const Clock::time_point call = Clock::now();
        Status s = inst->system->Load(load, relation, tuple);
        t.load_s += SecondsSince(call);
        ++t.tuples;
        return s;
      }));
  t.load_rpcs =
      inst->cluster->metrics().Snapshot().CounterValue("hbase_rpcs_total");

  const Clock::time_point compact = Clock::now();
  inst->cluster->MajorCompactAll();
  t.compact_s = SecondsSince(compact);
  t.total_s = SecondsSince(start);
  inst->store_bytes = inst->cluster->TotalBytes();
  return inst;
}

}  // namespace synbench
