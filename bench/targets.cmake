# Experiment binaries: one standalone harness per paper table/figure plus
# the ablations, each printing its results directly.  Wall-clock timing is
# perfbench's job (perfbench/run.py).  All binaries land in
# ${CMAKE_BINARY_DIR}/bench.

function(corbaft_add_bench name)
  cmake_parse_arguments(ARG "" "" "LIBS" ${ARGN})
  add_executable(${name} ${CMAKE_CURRENT_LIST_DIR}/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${ARG_LIBS} corbaft_options)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

corbaft_add_bench(fig3_load_distribution LIBS corbaft::opt)
corbaft_add_bench(table1_proxy_overhead LIBS corbaft::opt)
corbaft_add_bench(ablation_naming_strategies LIBS corbaft::opt)
corbaft_add_bench(ablation_checkpoint_frequency LIBS corbaft::opt)
corbaft_add_bench(ablation_recovery LIBS corbaft::opt)
corbaft_add_bench(ablation_migration LIBS corbaft::opt)
corbaft_add_bench(ablation_wan_metacomputing LIBS corbaft::opt)

# Golden-output checks: Table 1, the fast virtual-time ablations and the
# quickstart and fault_tolerant_service examples print byte-stable output,
# so each run is compared with its committed stdout (bench/golden/).
# `ctest -L golden` runs them; Fig. 3 is too slow to join.
foreach(_golden table1_proxy_overhead ablation_checkpoint_frequency
                ablation_migration ablation_wan_metacomputing quickstart
                fault_tolerant_service)
  add_test(NAME golden_${_golden}
           COMMAND ${CMAKE_COMMAND} -DBIN=$<TARGET_FILE:${_golden}>
                   -DGOLDEN=${CMAKE_CURRENT_LIST_DIR}/golden/${_golden}.txt
                   -P ${CMAKE_CURRENT_LIST_DIR}/check_golden.cmake)
  set_tests_properties(golden_${_golden} PROPERTIES LABELS golden)
endforeach()
