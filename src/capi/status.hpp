// The C API's exception -> cusfft_status mapping (internal to the C
// façade; declared here so tests can pin the split).
#pragma once

#include "capi/cusfft.h"

namespace cusfft::capi {

/// Status of the exception in flight (call only inside a catch block):
/// std::invalid_argument — malformed input or API misuse — is
/// INVALID_ARGUMENT; host or modeled device memory exhaustion
/// (std::bad_alloc, cusim::OutOfDeviceMemory) is ALLOC_FAILED; anything
/// else, other std::logic_errors included (a simulator invariant such as
/// an unknown timeline event), is INTERNAL_ERROR.
cusfft_status current_exception_status();

}  // namespace cusfft::capi
