# TSan smoke: configure a nested build with ACCDB_SANITIZE=thread (plus
# ACCDB_EXPENSIVE_CHECKS so the latched lock-index audit runs), build the
# multi-threaded runtime tests, and run them under ThreadSanitizer. Driven
# by CTest (see tests/CMakeLists.txt):
#
#   cmake -DSOURCE_DIR=<repo> -DBUILD_DIR=<dir> -P cmake/tsan_smoke.cmake
#
# The surface is the real-thread runtime: the ThreadExecutionEnv wait
# protocol, the partitioned lock-manager latching (lock_mt_stress_test is
# parameterized over 1/4/64 partitions, so the two-tier partition ->
# wait-tier paths all run under the race detector), the storage table
# latches, and the metrics recording — everything PR 3 made concurrent —
# plus the OCC validate/apply critical section and the MVCC version chains
# (cc_backend_test), the serving layer (net_server_test): sharded epoll
# loops (cross-shard accept handoff, per-shard session ownership), pipelined
# ordered delivery, the eventfd Defer/Wake handoffs, the bounded request
# queue, worker-pool deadlines, the open-loop client, graceful drain, and
# the WAL (wal_test, wal_recovery_test): concurrent Append/WaitDurable
# committers against the group-commit flusher thread, and storage_test's
# latch-free reads of a table frozen while its loader still inserts.

if(NOT DEFINED SOURCE_DIR OR NOT DEFINED BUILD_DIR)
  message(FATAL_ERROR "usage: cmake -DSOURCE_DIR=... -DBUILD_DIR=... -P tsan_smoke.cmake")
endif()

set(SMOKE_TESTS runtime_test rt_multiwh_test lock_mt_stress_test
    cc_backend_test net_server_test wal_test wal_recovery_test storage_test)

include(ProcessorCount)
ProcessorCount(NPROC)
if(NPROC EQUAL 0)
  set(NPROC 2)
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BUILD_DIR}
          -DCMAKE_BUILD_TYPE=RelWithDebInfo -DACCDB_SANITIZE=thread
          -DACCDB_EXPENSIVE_CHECKS=ON
  RESULT_VARIABLE configure_rc)
if(NOT configure_rc EQUAL 0)
  message(FATAL_ERROR "tsan smoke: configure failed (${configure_rc})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR} --parallel ${NPROC}
          --target ${SMOKE_TESTS}
  RESULT_VARIABLE build_rc)
if(NOT build_rc EQUAL 0)
  message(FATAL_ERROR "tsan smoke: build failed (${build_rc})")
endif()

# detect_deadlocks=0: TSan's experimental deadlock detector aborts the
# process (CHECK in sanitizer_deadlock_detector.h) once a thread holds more
# than 64 mutexes at once, and the expensive-checks lock-index audit latches
# every partition + the wait tier + all 64 txn stripes in one global-order
# sweep. Race detection is unaffected; latch-order discipline is documented
# in DESIGN.md §10, and a real latch deadlock would hang the stress test.
foreach(test ${SMOKE_TESTS})
  message(STATUS "tsan smoke: running ${test}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env TSAN_OPTIONS=detect_deadlocks=0
            ${BUILD_DIR}/tests/${test}
    RESULT_VARIABLE test_rc)
  if(NOT test_rc EQUAL 0)
    message(FATAL_ERROR "tsan smoke: ${test} failed (${test_rc})")
  endif()
endforeach()
