# Runs one bench in fast mode (GRIFFIN_FAST=1) and fails on a nonzero exit —
# benches gate their own invariants and floors in their exit code. With
# EXPECTED set, it also compares the BENCH_<NAME>.json the bench wrote byte
# for byte against that file: simulated time is deterministic, so a change
# that moves any simulated number fails here. With RERUN set, it runs the
# bench a second time and compares the two JSON files byte for byte (two-run
# determinism). bench/CMakeLists.txt registers one ctest test per bench
# under the `bench` label:
#
#   cmake -DBENCH=<binary> -DNAME=<name> -DJSON_DIR=<dir> -DCACHE_DIR=<dir>
#         [-DEXPECTED=<file>] [-DRERUN=ON] -P run_fast.cmake
#
# CACHE_DIR is the bench's own corpus cache: index::save_index writes the
# corpus file in place, so benches running in parallel must not share one.
set(ENV{GRIFFIN_FAST} 1)
set(ENV{GRIFFIN_BENCH_JSON_DIR} "${JSON_DIR}")
set(ENV{GRIFFIN_CACHE_DIR} "${CACHE_DIR}")
set(json "${JSON_DIR}/BENCH_${NAME}.json")

function(run_bench)
  file(REMOVE "${json}")
  execute_process(COMMAND "${BENCH}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NAME} exited with ${rc}")
  endif()
endfunction()

function(expect_same actual expected)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${actual}"
                          "${expected}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${actual} differs from ${expected}")
  endif()
endfunction()

run_bench()
if(RERUN)
  set(first "${JSON_DIR}/BENCH_${NAME}.first.json")
  file(RENAME "${json}" "${first}")
  run_bench()
  expect_same("${json}" "${first}")
  file(REMOVE "${first}")
endif()
if(DEFINED EXPECTED)
  expect_same("${json}" "${EXPECTED}")
endif()
