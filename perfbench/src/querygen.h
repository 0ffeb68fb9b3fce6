// Seeded query text for the wire workload: fresh LPath structures (distinct
// plans that miss the plan cache) and respellings of a query (the same
// structure under different whitespace and tag quoting, which misses the
// text-keyed cache level and binds through the structural fingerprint).

#ifndef PERFBENCH_QUERYGEN_H_
#define PERFBENCH_QUERYGEN_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// `count` distinct LPath queries of one to three steps over common WSJ
/// tags, drawn from `rng`.
std::vector<std::string> FreshStructures(size_t count, std::mt19937_64& rng);

/// A respelling of `query`: single spaces inserted at random token
/// boundaries and random tags quoted. Its normalized text differs from the
/// original's, its parse does not.
std::string Respell(const std::string& query, std::mt19937_64& rng);

}  // namespace perfbench

#endif  // PERFBENCH_QUERYGEN_H_
