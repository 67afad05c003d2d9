// Test helper shared by the chaos and property suites: wait out an active
// region-server failover before recovering the txn layer and auditing.
#pragma once

#include "hbase/cluster.h"

namespace synergy::testing {

/// Pumps heartbeat rounds until every region sits on a live server (dead
/// servers' regions reassigned, crashed stores replayed). No-op when the
/// cluster is healthy; bounded so a stuck failover fails the caller's
/// recovery or audit instead of hanging the test.
inline void DrainFailover(hbase::Cluster& cluster) {
  for (int i = 0; i < 256; ++i) {
    bool all_live = true;
    for (const hbase::Region* region : cluster.AllRegions()) {
      if (cluster.failover().state(region->server_id()) !=
          hbase::ServerState::kLive) {
        all_live = false;
        break;
      }
    }
    if (all_live) return;
    cluster.failover().PumpVirtualTime(
        64 * cluster.failover().config().us_per_tick);
  }
}

}  // namespace synergy::testing
