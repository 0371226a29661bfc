# Runs bench_compare on two committed reports at a loose and a tight
# threshold and checks each run's exit code and summary line. ctest
# invokes it as
#   cmake -DBENCH_COMPARE=<binary> -DBASELINE=<json> -DCANDIDATE=<json>
#         -P bench_compare_gate.cmake
function(expect_run threshold want_exit want_text)
    execute_process(
        COMMAND "${BENCH_COMPARE}" "${BASELINE}" "${CANDIDATE}"
                --threshold ${threshold}
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL want_exit)
        message(FATAL_ERROR
            "--threshold ${threshold}: exit ${code}, want ${want_exit}\n"
            "${out}${err}")
    endif()
    string(FIND "${out}" "${want_text}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "--threshold ${threshold}: output lacks '${want_text}'\n${out}")
    endif()
endfunction()

expect_run(1.5 0 "34 timings compared")
expect_run(0.05 1 "27 regressions, 5 improvements")
