# Runs bench_figures (path in BENCH) and fails unless it exits 0, prints
# the headings of Table I and Figs. 3-17 in paper order, and prints no
# NaN.
#
#   cmake -DBENCH=build/bench/bench_figures -P bench/check_figures.cmake

execute_process(COMMAND ${BENCH}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_figures exited with ${rc}:\n${err}")
endif()

set(last -1)
foreach(heading "Table I" "Fig. 3" "Fig. 4" "Fig. 5" "Fig. 6" "Fig. 7"
        "Fig. 8" "Fig. 9" "Fig. 10" "Fig. 11" "Fig. 12" "Fig. 13"
        "Fig. 14" "Fig. 15" "Fig. 16" "Fig. 17")
    string(FIND "${out}" "== ${heading}" pos)
    if(pos LESS_EQUAL last)
        message(FATAL_ERROR "heading '${heading}' missing or out of order")
    endif()
    set(last ${pos})
endforeach()

if(out MATCHES "(^|[^A-Za-z])-?nan([^A-Za-z]|$)")
    message(FATAL_ERROR "NaN in bench_figures output")
endif()
