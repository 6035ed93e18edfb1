/**
 * @file
 * The correctness gate's digest: FNV-1a over the canonical bytes of
 * every report (the WAL/snapshot encoding, durability::putReport) in
 * request-id order. Two runs agree on it iff their reports are
 * byte-identical, which is the repository's oracle.
 */
#ifndef EXIST_PERFBENCH_DIGEST_H
#define EXIST_PERFBENCH_DIGEST_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/master.h"
#include "durability/wal.h"
#include "net/wire.h"

namespace perfbench {

/** `reports[i]` is request i+1's report, nullptr when it has none. */
inline std::uint64_t
reportDigest(const std::vector<const exist::TraceReport *> &reports)
{
    std::vector<std::uint8_t> bytes;
    exist::net::ByteWriter w(&bytes);
    for (const exist::TraceReport *r : reports) {
        w.putU8(r != nullptr ? 1 : 0);
        if (r != nullptr)
            exist::durability::putReport(w, *r);
    }
    return exist::net::fnv1a64(bytes.data(), bytes.size());
}

inline std::string
digestHex(std::uint64_t d)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(d));
    return buf;
}

}  // namespace perfbench

#endif  // EXIST_PERFBENCH_DIGEST_H
