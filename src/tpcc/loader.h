// Initial database population (TPC-C clause 4.3, scaled).

#ifndef ACCDB_TPCC_LOADER_H_
#define ACCDB_TPCC_LOADER_H_

#include <cstdint>

#include "common/rng.h"
#include "tpcc/config.h"
#include "tpcc/tpcc_db.h"

namespace accdb::tpcc {

// Synthesizes one of the 1000 spec customer last names from its number
// (clause 4.3.2.3: three syllables indexed by digits).
std::string CustomerLastName(int64_t number);

// Populates `db` deterministically from `seed`. Initial orders are loaded
// delivered (carrier set, lines stamped) so that the database starts in a
// state satisfying every consistency condition. ITEM, which no transaction
// writes, is frozen once loaded (storage::Table::Freeze).
void LoadDatabase(TpccDb& db, const ScaleConfig& scale, uint64_t seed);

}  // namespace accdb::tpcc

#endif  // ACCDB_TPCC_LOADER_H_
