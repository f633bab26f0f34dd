# Sanitizer smoke: configure a nested build with ACCDB_SANITIZE=ON, build
# the test binaries that exercise the metrics/instrumentation paths, and run
# them under ASan+UBSan. Driven by CTest (see tests/CMakeLists.txt):
#
#   cmake -DSOURCE_DIR=<repo> -DBUILD_DIR=<dir> -P cmake/sanitizer_smoke.cmake
#
# A nested build (rather than a second full test suite) keeps the sanitized
# surface focused: histogram bucketing, lock-manager stats attribution, and
# the engine/txn-context latency measurement paths.

if(NOT DEFINED SOURCE_DIR OR NOT DEFINED BUILD_DIR)
  message(FATAL_ERROR "usage: cmake -DSOURCE_DIR=... -DBUILD_DIR=... -P sanitizer_smoke.cmake")
endif()

# interference_test carries the spec derivation and its golden matrices
# (DESIGN.md §14) and spec_audit_test the runtime auditor — both sanitized here so the
# derivation and audit paths run under ASan+UBSan in every CI matrix cell.
# storage_test runs the index-key encoder's sign and shift arithmetic under
# UBSan; txn_context_test the keyed-read rebinding paths.
set(SMOKE_TESTS sim_test lock_manager_test engine_test cc_backend_test
    interference_test spec_audit_test storage_test txn_context_test)

include(ProcessorCount)
ProcessorCount(NPROC)
if(NPROC EQUAL 0)
  set(NPROC 2)
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BUILD_DIR}
          -DCMAKE_BUILD_TYPE=RelWithDebInfo -DACCDB_SANITIZE=ON
  RESULT_VARIABLE configure_rc)
if(NOT configure_rc EQUAL 0)
  message(FATAL_ERROR "sanitizer smoke: configure failed (${configure_rc})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR} --parallel ${NPROC}
          --target ${SMOKE_TESTS}
  RESULT_VARIABLE build_rc)
if(NOT build_rc EQUAL 0)
  message(FATAL_ERROR "sanitizer smoke: build failed (${build_rc})")
endif()

foreach(test ${SMOKE_TESTS})
  message(STATUS "sanitizer smoke: running ${test}")
  execute_process(
    COMMAND ${BUILD_DIR}/tests/${test}
    RESULT_VARIABLE test_rc)
  if(NOT test_rc EQUAL 0)
    message(FATAL_ERROR "sanitizer smoke: ${test} failed (${test_rc})")
  endif()
endforeach()
