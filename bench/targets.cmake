# Benchmark binaries.  Standalone experiment harnesses (one per paper table/
# figure plus ablations) print their results directly; micro benches use
# google-benchmark.  All binaries land in ${CMAKE_BINARY_DIR}/bench.

function(corbaft_add_bench name)
  cmake_parse_arguments(ARG "GBENCH" "" "LIBS" ${ARGN})
  add_executable(${name} ${CMAKE_CURRENT_LIST_DIR}/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${ARG_LIBS} corbaft_options)
  if(ARG_GBENCH)
    target_link_libraries(${name} PRIVATE benchmark::benchmark)
  endif()
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

corbaft_add_bench(fig3_load_distribution LIBS corbaft::opt)
corbaft_add_bench(table1_proxy_overhead LIBS corbaft::opt)
corbaft_add_bench(ablation_naming_strategies LIBS corbaft::opt)
corbaft_add_bench(ablation_checkpoint_frequency LIBS corbaft::opt)
corbaft_add_bench(ablation_recovery LIBS corbaft::opt)
corbaft_add_bench(ablation_migration LIBS corbaft::opt)
# micro_orb links opt (not just orb) because the multiplex sweep uses the
# shared bench scaffolding in bench_common.hpp.
corbaft_add_bench(micro_orb GBENCH LIBS corbaft::opt)
# micro_checkpoint links opt (not just ft) because the pipeline sweep uses
# the shared bench scaffolding in bench_common.hpp.
corbaft_add_bench(micro_checkpoint GBENCH LIBS corbaft::opt)
corbaft_add_bench(micro_sim GBENCH LIBS corbaft::sim)
# Sharded checkpoint store scaling sweep (TCP ORBs; no google-benchmark —
# it drives its own writer threads and wall clock).
corbaft_add_bench(micro_ckptstore LIBS corbaft::ft)
corbaft_add_bench(micro_events LIBS corbaft::opt)
corbaft_add_bench(micro_trace LIBS corbaft::opt)
corbaft_add_bench(ablation_wan_metacomputing LIBS corbaft::opt)

# Golden-output checks: the fast virtual-time ablations and the quickstart
# and fault_tolerant_service examples print byte-stable output, so each run
# is compared with its committed stdout (bench/golden/).  `ctest -L golden`
# runs them; Table 1 and Fig. 3 are too slow to join.
foreach(_golden ablation_checkpoint_frequency ablation_migration
                ablation_wan_metacomputing quickstart fault_tolerant_service)
  add_test(NAME golden_${_golden}
           COMMAND ${CMAKE_COMMAND} -DBIN=$<TARGET_FILE:${_golden}>
                   -DGOLDEN=${CMAKE_CURRENT_LIST_DIR}/golden/${_golden}.txt
                   -P ${CMAKE_CURRENT_LIST_DIR}/check_golden.cmake)
  set_tests_properties(golden_${_golden} PROPERTIES LABELS golden)
endforeach()

# Smoke run of the JSON-emitting benches: reduced workloads, then a schema
# check of the emitted BENCH_*.json (tools/run_benches.sh).  Available both
# as a build target (`cmake --build build --target bench-smoke`) and as a
# ctest under the `bench` label; the smoke workload keeps it fast enough for
# the default test run.
set(_corbaft_bench_smoke_cmd
  ${CMAKE_CURRENT_LIST_DIR}/../tools/run_benches.sh
  $<TARGET_FILE:table1_proxy_overhead> $<TARGET_FILE:micro_checkpoint>
  $<TARGET_FILE:micro_orb> $<TARGET_FILE:micro_events>
  $<TARGET_FILE:micro_trace> $<TARGET_FILE:micro_ckptstore>)
add_custom_target(bench-smoke
  COMMAND ${CMAKE_COMMAND} -E env CORBAFT_BENCH_SMOKE=1
          ${_corbaft_bench_smoke_cmd}
  WORKING_DIRECTORY ${CMAKE_BINARY_DIR}/bench
  DEPENDS table1_proxy_overhead micro_checkpoint micro_orb micro_events
          micro_trace micro_ckptstore
  VERBATIM)
add_test(NAME bench_smoke COMMAND ${_corbaft_bench_smoke_cmd})
# The `obs` label groups everything that exercises the observability layer:
# the obs unit tests plus this smoke run (which validates the embedded
# metrics snapshots).  `ctest -L obs` runs the whole group.
set_tests_properties(bench_smoke PROPERTIES
  LABELS "bench;obs"
  ENVIRONMENT "CORBAFT_BENCH_SMOKE=1"
  WORKING_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
