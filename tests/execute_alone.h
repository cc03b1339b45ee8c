// Copyright 2026 The ConsensusDB Authors
//
// How serve --stream executes a request: as a one-request scheduler batch.
// A request run this way sees only the trees loaded before it, and a stats
// request reports the counters as of its turn, so a sequence of these calls
// is the streamed transcript of the same requests.

#ifndef CPDB_TESTS_EXECUTE_ALONE_H_
#define CPDB_TESTS_EXECUTE_ALONE_H_

#include "common/result.h"
#include "service/query_scheduler.h"

namespace cpdb {

inline Result<ServiceResponse> ExecuteAlone(QueryScheduler& scheduler,
                                            const ServiceRequest& request) {
  return scheduler.ExecuteBatch({request})[0];
}

}  // namespace cpdb

#endif  // CPDB_TESTS_EXECUTE_ALONE_H_
