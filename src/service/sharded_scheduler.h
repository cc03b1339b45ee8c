// Copyright 2026 The ConsensusDB Authors
//
// ShardedScheduler — an alias of QueryScheduler, the serving front end
// over N >= 1 shards (service/query_scheduler.h), kept for callers that
// still spell this name.

#ifndef CPDB_SERVICE_SHARDED_SCHEDULER_H_
#define CPDB_SERVICE_SHARDED_SCHEDULER_H_

#include "service/query_scheduler.h"

namespace cpdb {

using ShardedScheduler = QueryScheduler;

}  // namespace cpdb

#endif  // CPDB_SERVICE_SHARDED_SCHEDULER_H_
