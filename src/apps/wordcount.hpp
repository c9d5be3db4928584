// wordcount.hpp — the WordCount workload (paper Sec. 6.1): the canonical
// communication-heavy, compute-light MapReduce benchmark.
#pragma once

#include "core/ftjob.hpp"

namespace ftmr::apps {

/// FT-MRMPI stage: split lines into words, count occurrences.
core::StageFns wordcount_stage();

}  // namespace ftmr::apps
