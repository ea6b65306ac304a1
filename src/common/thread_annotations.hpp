// Clang thread-safety (capability) analysis attributes.
//
// DCDB's hot paths — sampler threads filling the sensor cache, broker
// session threads feeding the storage layer, the pusher's pending rings —
// all rely on mutex discipline that used to be checked by nothing. These
// macros make that discipline machine-checked: building with Clang and
// -Wthread-safety (turned on together with -Werror=thread-safety-analysis
// by the top-level CMakeLists when the compiler is Clang) rejects any
// unlocked access to a DCDB_GUARDED_BY member and any call to a
// DCDB_REQUIRES function without the capability held. GCC compiles the
// same code with the attributes expanding to nothing.
//
// Use the annotated primitives from common/mutex.hpp (dcdb::Mutex,
// dcdb::SharedMutex, dcdb::CondVar and the scoped locks); a raw
// std::mutex member is invisible to the analysis and is rejected by
// tools/dcdblint in the annotated layers.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define DCDB_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef DCDB_THREAD_ANNOTATION
#define DCDB_THREAD_ANNOTATION(x)  // no-op on GCC and older Clang
#endif

/// Marks a type as a capability ("mutex", "shared_mutex", ...).
#define DCDB_CAPABILITY(x) DCDB_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define DCDB_SCOPED_CAPABILITY DCDB_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only with the capability held.
#define DCDB_GUARDED_BY(x) DCDB_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by the capability.
#define DCDB_PT_GUARDED_BY(x) DCDB_THREAD_ANNOTATION(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock prevention).
#define DCDB_ACQUIRED_BEFORE(...) \
    DCDB_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define DCDB_ACQUIRED_AFTER(...) \
    DCDB_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Caller must hold the capability (exclusively / shared).
#define DCDB_REQUIRES(...) \
    DCDB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define DCDB_REQUIRES_SHARED(...) \
    DCDB_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability (and does not release it).
#define DCDB_ACQUIRE(...) \
    DCDB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define DCDB_ACQUIRE_SHARED(...) \
    DCDB_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability.
#define DCDB_RELEASE(...) \
    DCDB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define DCDB_RELEASE_SHARED(...) \
    DCDB_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `b`.
#define DCDB_TRY_ACQUIRE(b, ...) \
    DCDB_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))

/// Caller must NOT hold the capability (non-reentrancy / deadlock guard).
#define DCDB_EXCLUDES(...) DCDB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (no acquire/release).
#define DCDB_ASSERT_CAPABILITY(x) \
    DCDB_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the capability guarding its result.
#define DCDB_RETURN_CAPABILITY(x) DCDB_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disable the analysis for one function. Every use must
/// carry a comment explaining why the discipline cannot be expressed.
#define DCDB_NO_THREAD_SAFETY_ANALYSIS \
    DCDB_THREAD_ANNOTATION(no_thread_safety_analysis)
