// interference_dump: print the interference tables that TPC-C and the
// Section 4 order-processing example run on — derived from their
// step/assertion specs — as markdown matrices.
//
// Cells: `-` = kNone, `K` = kIfSameKey, `A` = kAlways. The output for one
// system is byte-for-byte the golden that interference_test pins:
//
//   interference_dump tpcc      | diff - tests/golden/interference_tpcc.md
//   interference_dump orderproc | diff - tests/golden/interference_orderproc.md
//
// Usage: interference_dump [tpcc|orderproc]   (default: both)

#include <cstdio>
#include <cstring>
#include <string>

#include "acc/spec_derive.h"
#include "orderproc/order_system.h"
#include "storage/database.h"
#include "tpcc/tpcc_db.h"

int main(int argc, char** argv) {
  using namespace accdb;
  bool want_tpcc = true, want_orderproc = true;
  if (argc > 1) {
    if (std::strcmp(argv[1], "tpcc") == 0) {
      want_orderproc = false;
    } else if (std::strcmp(argv[1], "orderproc") == 0) {
      want_tpcc = false;
    } else {
      std::fprintf(stderr, "usage: %s [tpcc|orderproc]\n", argv[0]);
      return 2;
    }
  }

  if (want_tpcc) {
    storage::Database db;
    tpcc::TpccDb tpcc(&db);
    std::fputs(acc::spec::FormatInterferenceMatrix("tpcc", tpcc.catalog,
                                                   tpcc.interference)
                   .c_str(),
               stdout);
  }
  if (want_tpcc && want_orderproc) std::fputs("\n", stdout);
  if (want_orderproc) {
    storage::Database db;
    orderproc::OrderSystem system(&db);
    std::fputs(acc::spec::FormatInterferenceMatrix("orderproc",
                                                   system.catalog,
                                                   system.interference)
                   .c_str(),
               stdout);
  }
  return 0;
}
