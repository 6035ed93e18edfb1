/**
 * @file
 * The byte-identity oracle the control-plane tests share with the
 * benchmark's correctness gate: FNV-1a over a presence byte plus the
 * canonical report encoding (durability::putReport) of each request,
 * in the order given.
 */
#ifndef EXIST_TESTS_REPORT_DIGEST_H
#define EXIST_TESTS_REPORT_DIGEST_H

#include <cstdint>
#include <vector>

#include "cluster/shard/sharded_master.h"
#include "durability/wal.h"
#include "net/wire.h"

namespace exist {

inline std::uint64_t
reportDigest(const ShardedMaster &master,
             const std::vector<std::uint64_t> &ids)
{
    std::vector<std::uint8_t> bytes;
    net::ByteWriter w(&bytes);
    for (std::uint64_t id : ids) {
        const TraceReport *r = master.report(id);
        w.putU8(r != nullptr ? 1 : 0);
        if (r != nullptr)
            durability::putReport(w, *r);
    }
    return net::fnv1a64(bytes.data(), bytes.size());
}

}  // namespace exist

#endif  // EXIST_TESTS_REPORT_DIGEST_H
