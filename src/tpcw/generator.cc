#include "tpcw/generator.h"

#include <algorithm>
#include <thread>

namespace synergy::tpcw {
namespace {

std::string Uname(int64_t c_id) { return "USER" + std::to_string(c_id); }

// ---- parallel loader ----

// Ids per block: one RNG seed per block makes the generated data a pure
// function of (seed, block size), independent of how many threads consume
// the blocks.
constexpr int64_t kLoadBlock = 1024;

uint64_t BlockSeed(uint64_t seed, uint64_t phase, int64_t block) {
  // splitmix64's output mixing decorrelates nearby seeds, so a cheap
  // combination is enough.
  return seed ^ (phase << 40) ^ static_cast<uint64_t>(block);
}

/// Emits one id of a phase using that block's RNG.
using EmitFn = std::function<Status(Rng& rng, int thread_id, int64_t id)>;

/// Runs one FK-topological phase: ids 1..count split into kLoadBlock-sized
/// blocks, block b handled by thread b % threads. Joins all workers before
/// returning (the inter-phase barrier).
Status ParallelPhase(int threads, uint64_t seed, uint64_t phase, int64_t count,
                     const EmitFn& emit) {
  if (count <= 0) return Status::Ok();
  const int64_t num_blocks = (count + kLoadBlock - 1) / kLoadBlock;
  const int n = static_cast<int>(
      std::max<int64_t>(1, std::min<int64_t>(threads, num_blocks)));
  std::vector<Status> results(static_cast<size_t>(n), Status::Ok());
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(n));
  for (int tid = 0; tid < n; ++tid) {
    workers.emplace_back([&, tid] {
      for (int64_t b = tid; b < num_blocks; b += n) {
        Rng rng(BlockSeed(seed, phase, b));
        const int64_t lo = b * kLoadBlock + 1;
        const int64_t hi = std::min(count, (b + 1) * kLoadBlock);
        for (int64_t id = lo; id <= hi; ++id) {
          Status s = emit(rng, tid, id);
          if (!s.ok()) {
            results[static_cast<size_t>(tid)] = std::move(s);
            return;
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (Status& s : results) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

const std::vector<std::string>& Subjects() {
  static const std::vector<std::string> kSubjects = {
      "ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS",
      "COOKING", "HEALTH", "HISTORY", "HOME", "HUMOR", "LITERATURE",
      "MYSTERY", "NON-FICTION", "PARENTING", "POLITICS", "REFERENCE",
      "RELIGION", "ROMANCE", "SELF-HELP", "SCIENCE-NATURE",
      "SCIENCE-FICTION", "SPORTS", "YOUTH", "TRAVEL"};
  return kSubjects;
}

namespace {

// One row builder per relation, shared by both loaders. Each returns the
// relation's Tuple in schema order; braced-list elements are evaluated left
// to right, so the RNG draw order is the column order.

exec::Tuple CountryRow(Rng& rng, int64_t id) {
  return {Value(id), Value("COUNTRY" + std::to_string(id)),
          Value(rng.UniformReal(0.1, 10.0)), Value(rng.AlphaString(3))};
}

exec::Tuple AddressRow(Rng& rng, int64_t id, const ScaleConfig& cfg) {
  return {Value(id),
          Value(rng.AlphaString(16)),                   // addr_street1
          Value(rng.AlphaString(16)),                   // addr_street2
          Value(rng.AlphaString(10)),                   // addr_city
          Value(rng.AlphaString(2)),                    // addr_state
          Value(rng.AlphaString(5)),                    // addr_zip
          Value(rng.Uniform(1, cfg.num_countries()))};  // addr_co_id
}

exec::Tuple AuthorRow(Rng& rng, int64_t id) {
  return {Value(id),
          Value(rng.AlphaString(8)),       // a_fname
          Value(rng.AlphaString(10)),      // a_lname
          Value(rng.AlphaString(1)),       // a_mname
          Value(rng.Uniform(1900, 1999)),  // a_dob
          Value(rng.AlphaString(60))};     // a_bio
}

exec::Tuple CustomerRow(Rng& rng, int64_t id, const ScaleConfig& cfg) {
  return {Value(id),
          Value(Uname(id)),
          Value(rng.AlphaString(8)),                   // c_passwd
          Value(rng.AlphaString(8)),                   // c_fname
          Value(rng.AlphaString(10)),                  // c_lname
          Value(rng.Uniform(1, cfg.num_addresses())),  // c_addr_id
          Value(rng.AlphaString(10)),                  // c_phone
          Value(rng.AlphaString(12)),                  // c_email
          Value(rng.Uniform(20000101, 20170101)),      // c_since
          Value(rng.Uniform(20170101, 20170930)),      // c_last_login
          Value(rng.Uniform(0, 1000000)),              // c_login
          Value(rng.Uniform(20180101, 20200101)),      // c_expiration
          Value(rng.UniformReal(0.0, 0.5)),            // c_discount
          Value(rng.UniformReal(-100.0, 100.0)),       // c_balance
          Value(rng.UniformReal(0.0, 10000.0)),        // c_ytd_pmt
          Value(rng.Uniform(19200101, 19991231)),      // c_birthdate
          Value(rng.AlphaString(80))};                 // c_data
}

exec::Tuple ItemRow(Rng& rng, int64_t id, const ScaleConfig& cfg) {
  const auto& subjects = Subjects();
  auto related = [&] { return Value(rng.Uniform(1, cfg.num_items())); };
  return {Value(id),
          Value("TITLE" + std::to_string(rng.Next() % 100000)),
          Value(rng.Uniform(1, cfg.num_authors())),     // i_a_id
          Value(rng.Uniform(19500101, 20170101)),       // i_pub_date
          Value(rng.AlphaString(14)),                   // i_publisher
          Value(subjects[rng.Next() % subjects.size()]),
          Value(rng.AlphaString(100)),                  // i_desc
          related(),                                    // i_related1
          related(),                                    // i_related2
          related(),                                    // i_related3
          related(),                                    // i_related4
          related(),                                    // i_related5
          Value(rng.AlphaString(20)),                   // i_thumbnail
          Value(rng.AlphaString(20)),                   // i_image
          Value(rng.UniformReal(1.0, 300.0)),           // i_srp
          Value(rng.UniformReal(1.0, 300.0)),           // i_cost
          Value(rng.Uniform(20170101, 20171231)),       // i_avail
          Value(rng.Uniform(10, 30)),                   // i_stock
          Value(rng.AlphaString(13)),                   // i_isbn
          Value(rng.Uniform(20, 9999)),                 // i_page
          Value(rng.AlphaString(5)),                    // i_backing
          Value(rng.AlphaString(12))};                  // i_dimensions
}

/// Customer:Orders = 1:10, customers assigned round-robin.
exec::Tuple OrdersRow(Rng& rng, int64_t o_id, const ScaleConfig& cfg) {
  return {Value(o_id),
          Value((o_id - 1) % cfg.num_customers + 1),   // o_c_id
          Value(rng.Uniform(20150101, 20170930)),      // o_date
          Value(rng.UniformReal(10.0, 1000.0)),        // o_sub_total
          Value(rng.UniformReal(0.0, 80.0)),           // o_tax
          Value(rng.UniformReal(10.0, 1100.0)),        // o_total
          Value(rng.AlphaString(6)),                   // o_ship_type
          Value(rng.Uniform(20150101, 20171001)),      // o_ship_date
          Value(rng.Uniform(1, cfg.num_addresses())),  // o_bill_addr_id
          Value(rng.Uniform(1, cfg.num_addresses())),  // o_ship_addr_id
          Value(rng.AlphaString(8))};                  // o_status
}

exec::Tuple OrderLineRow(Rng& rng, int64_t ol_id, int64_t o_id,
                         const ScaleConfig& cfg) {
  return {Value(ol_id),
          Value(o_id),
          Value(rng.Uniform(1, cfg.num_items())),  // ol_i_id
          Value(rng.Uniform(1, 10)),               // ol_qty
          Value(rng.UniformReal(0.0, 0.3)),        // ol_discount
          Value(rng.AlphaString(20))};             // ol_comments
}

exec::Tuple CcXactsRow(Rng& rng, int64_t o_id, const ScaleConfig& cfg) {
  return {Value(o_id),
          Value(rng.Next() % 2 ? "VISA" : "AMEX"),      // cx_type
          Value(rng.AlphaString(16)),                   // cx_num
          Value(rng.AlphaString(14)),                   // cx_name
          Value(rng.Uniform(20180101, 20220101)),       // cx_expiry
          Value(rng.AlphaString(15)),                   // cx_auth_id
          Value(rng.UniformReal(10.0, 1100.0)),         // cx_xact_amt
          Value(rng.Uniform(20150101, 20171001)),       // cx_xact_date
          Value(rng.Uniform(1, cfg.num_countries()))};  // cx_co_id
}

exec::Tuple CartRow(Rng& rng, int64_t sc) {
  return {Value(sc), Value(rng.Uniform(0, 1 << 30))};
}

exec::Tuple CartLineRow(Rng& rng, int64_t sc, const ScaleConfig& cfg) {
  return {Value(sc), Value(rng.Uniform(1, cfg.num_items())),
          Value(rng.Uniform(1, 5))};
}

}  // namespace

Status GenerateDatabase(const ScaleConfig& cfg, const TupleSink& sink) {
  Rng rng(cfg.seed);
  for (int64_t id = 1; id <= cfg.num_countries(); ++id) {
    SYNERGY_RETURN_IF_ERROR(sink("Country", CountryRow(rng, id)));
  }
  for (int64_t id = 1; id <= cfg.num_addresses(); ++id) {
    SYNERGY_RETURN_IF_ERROR(sink("Address", AddressRow(rng, id, cfg)));
  }
  for (int64_t id = 1; id <= cfg.num_authors(); ++id) {
    SYNERGY_RETURN_IF_ERROR(sink("Author", AuthorRow(rng, id)));
  }
  for (int64_t id = 1; id <= cfg.num_customers; ++id) {
    SYNERGY_RETURN_IF_ERROR(sink("Customer", CustomerRow(rng, id, cfg)));
  }
  for (int64_t id = 1; id <= cfg.num_items(); ++id) {
    SYNERGY_RETURN_IF_ERROR(sink("Item", ItemRow(rng, id, cfg)));
  }
  // Orders + lines + credit-card transactions.
  int64_t next_ol_id = 1;
  for (int64_t o_id = 1; o_id <= cfg.num_orders(); ++o_id) {
    SYNERGY_RETURN_IF_ERROR(sink("Orders", OrdersRow(rng, o_id, cfg)));
    const int64_t lines = rng.Uniform(1, 5);
    for (int64_t l = 0; l < lines; ++l) {
      SYNERGY_RETURN_IF_ERROR(
          sink("Order_line", OrderLineRow(rng, next_ol_id++, o_id, cfg)));
    }
    SYNERGY_RETURN_IF_ERROR(sink("CC_Xacts", CcXactsRow(rng, o_id, cfg)));
  }
  for (int64_t sc = 1; sc <= cfg.num_carts(); ++sc) {
    SYNERGY_RETURN_IF_ERROR(sink("Shopping_cart", CartRow(rng, sc)));
    const int64_t lines = rng.Uniform(1, 3);
    for (int64_t l = 0; l < lines; ++l) {
      SYNERGY_RETURN_IF_ERROR(
          sink("Shopping_cart_line", CartLineRow(rng, sc, cfg)));
    }
  }
  // Orders_tmp: the most recent orders (highest ids).
  for (int64_t k = 0; k < cfg.num_orders_tmp(); ++k) {
    SYNERGY_RETURN_IF_ERROR(sink("Orders_tmp", {Value(cfg.num_orders() - k)}));
  }
  return Status::Ok();
}

Status GenerateDatabaseParallel(const ScaleConfig& cfg,
                                const ParallelTupleSink& sink) {
  const int threads = std::max(1, cfg.load_threads);

  // Phase tags feed BlockSeed, so each relation gets its own seed stream.
  enum : uint64_t {
    kCountry = 1, kAddress, kAuthor, kCustomer, kItem, kOrders, kCarts, kTmp
  };

  SYNERGY_RETURN_IF_ERROR(ParallelPhase(
      threads, cfg.seed, kCountry, cfg.num_countries(),
      [&](Rng& rng, int tid, int64_t id) {
        return sink(tid, "Country", CountryRow(rng, id));
      }));
  SYNERGY_RETURN_IF_ERROR(ParallelPhase(
      threads, cfg.seed, kAddress, cfg.num_addresses(),
      [&](Rng& rng, int tid, int64_t id) {
        return sink(tid, "Address", AddressRow(rng, id, cfg));
      }));
  SYNERGY_RETURN_IF_ERROR(ParallelPhase(
      threads, cfg.seed, kAuthor, cfg.num_authors(),
      [&](Rng& rng, int tid, int64_t id) {
        return sink(tid, "Author", AuthorRow(rng, id));
      }));
  SYNERGY_RETURN_IF_ERROR(ParallelPhase(
      threads, cfg.seed, kCustomer, cfg.num_customers,
      [&](Rng& rng, int tid, int64_t id) {
        return sink(tid, "Customer", CustomerRow(rng, id, cfg));
      }));
  SYNERGY_RETURN_IF_ERROR(ParallelPhase(
      threads, cfg.seed, kItem, cfg.num_items(),
      [&](Rng& rng, int tid, int64_t id) {
        return sink(tid, "Item", ItemRow(rng, id, cfg));
      }));
  // Orders carry their lines and credit-card row; ol_id is derived from
  // (o_id, line) so no cross-thread counter is needed.
  SYNERGY_RETURN_IF_ERROR(ParallelPhase(
      threads, cfg.seed, kOrders, cfg.num_orders(),
      [&](Rng& rng, int tid, int64_t o_id) {
        SYNERGY_RETURN_IF_ERROR(sink(tid, "Orders", OrdersRow(rng, o_id, cfg)));
        const int64_t lines = rng.Uniform(1, 5);
        for (int64_t l = 0; l < lines; ++l) {
          SYNERGY_RETURN_IF_ERROR(
              sink(tid, "Order_line",
                   OrderLineRow(rng, (o_id - 1) * 5 + l + 1, o_id, cfg)));
        }
        return sink(tid, "CC_Xacts", CcXactsRow(rng, o_id, cfg));
      }));
  SYNERGY_RETURN_IF_ERROR(ParallelPhase(
      threads, cfg.seed, kCarts, cfg.num_carts(),
      [&](Rng& rng, int tid, int64_t sc) {
        SYNERGY_RETURN_IF_ERROR(sink(tid, "Shopping_cart", CartRow(rng, sc)));
        const int64_t lines = rng.Uniform(1, 3);
        for (int64_t l = 0; l < lines; ++l) {
          SYNERGY_RETURN_IF_ERROR(
              sink(tid, "Shopping_cart_line", CartLineRow(rng, sc, cfg)));
        }
        return Status::Ok();
      }));
  return ParallelPhase(
      threads, cfg.seed, kTmp, cfg.num_orders_tmp(),
      [&](Rng&, int tid, int64_t k) {
        return sink(tid, "Orders_tmp", {Value(cfg.num_orders() - (k - 1))});
      });
}

StatusOr<std::vector<Value>> ParamProvider::ParamsFor(
    const std::string& id) {
  const auto& subjects = Subjects();
  auto subject = [&] {
    return Value(subjects[static_cast<size_t>(rng_.Next() % subjects.size())]);
  };
  auto cust = [&] { return Value(rng_.Uniform(1, config_.num_customers)); };
  auto item = [&] { return Value(rng_.Uniform(1, config_.num_items())); };
  auto order = [&] { return Value(rng_.Uniform(1, config_.num_orders())); };
  auto cart = [&] { return Value(rng_.Uniform(1, config_.num_carts())); };
  auto addr = [&] { return Value(rng_.Uniform(1, config_.num_addresses())); };

  if (id == "Q1") return std::vector<Value>{order()};
  if (id == "Q2" || id == "Q3") {
    return std::vector<Value>{Value(Uname(rng_.Uniform(1, config_.num_customers)))};
  }
  if (id == "Q4" || id == "Q5" || id == "Q10") {
    return std::vector<Value>{subject()};
  }
  if (id == "Q6" || id == "Q9") return std::vector<Value>{item()};
  if (id == "Q7") return std::vector<Value>{order()};
  if (id == "Q8") return std::vector<Value>{cart()};
  if (id == "Q11") {
    const Value i = item();
    return std::vector<Value>{i, i};
  }
  if (id == "W1") {
    return std::vector<Value>{Value(NextFreshId()), cust(), Value(20171001),
                              Value(100.0),          Value(8.0),
                              Value(108.0),          Value("FEDEX"),
                              Value(20171002),       addr(),
                              addr(),                Value("PENDING")};
  }
  if (id == "W2") {
    return std::vector<Value>{Value(NextFreshId()),
                              Value("VISA"),
                              Value(rng_.AlphaString(16)),
                              Value(rng_.AlphaString(14)),
                              Value(20191231),
                              Value(rng_.AlphaString(15)),
                              Value(108.0),
                              Value(20171001),
                              Value(rng_.Uniform(1, config_.num_countries()))};
  }
  if (id == "W3") {
    return std::vector<Value>{Value(NextFreshId()), order(), item(),
                              Value(rng_.Uniform(1, 10)), Value(0.1),
                              Value(rng_.AlphaString(20))};
  }
  if (id == "W4") {
    const int64_t fresh = NextFreshId();
    return std::vector<Value>{Value(fresh),
                              Value("USER" + std::to_string(fresh)),
                              Value(rng_.AlphaString(8)),
                              Value(rng_.AlphaString(8)),
                              Value(rng_.AlphaString(10)),
                              addr(),
                              Value(rng_.AlphaString(10)),
                              Value(rng_.AlphaString(12)),
                              Value(20171001),
                              Value(20171001),
                              Value(0),
                              Value(20200101),
                              Value(0.1),
                              Value(0.0),
                              Value(0.0),
                              Value(19800101),
                              Value(rng_.AlphaString(80))};
  }
  if (id == "W5") {
    return std::vector<Value>{Value(NextFreshId()),
                              Value(rng_.AlphaString(16)),
                              Value(rng_.AlphaString(16)),
                              Value(rng_.AlphaString(10)),
                              Value(rng_.AlphaString(2)),
                              Value(rng_.AlphaString(5)),
                              Value(rng_.Uniform(1, config_.num_countries()))};
  }
  if (id == "W6") {
    return std::vector<Value>{Value(NextFreshId()), Value(20171001)};
  }
  if (id == "W7") {
    return std::vector<Value>{cart(), Value(NextFreshId()),
                              Value(rng_.Uniform(1, 5))};
  }
  if (id == "W8") return std::vector<Value>{cart(), item()};
  if (id == "W9") {
    return std::vector<Value>{Value(19.99), Value(20171001),
                              Value(rng_.AlphaString(14)), item()};
  }
  if (id == "W10") {
    return std::vector<Value>{Value(rng_.AlphaString(20)),
                              Value(rng_.AlphaString(20)), item()};
  }
  if (id == "W11") return std::vector<Value>{Value(20171002), cart()};
  if (id == "W12") {
    return std::vector<Value>{Value(rng_.Uniform(1, 9)), cart(), item()};
  }
  if (id == "W13") {
    return std::vector<Value>{Value(50.0), Value(1000.0), Value(20171001),
                              cust()};
  }
  if (id == "S1") return std::vector<Value>{cust()};
  if (id == "S2" || id == "S3") return std::vector<Value>{item()};
  if (id == "S4") return std::vector<Value>{addr()};
  if (id == "S5") {
    return std::vector<Value>{Value(rng_.Uniform(1, config_.num_countries()))};
  }
  if (id == "S6" || id == "S8") return std::vector<Value>{cart()};
  if (id == "S7") return std::vector<Value>{cust()};
  return Status::InvalidArgument("unknown statement id " + id);
}

}  // namespace synergy::tpcw
