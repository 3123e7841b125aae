# Replay-determinism smoke for busstat (see tools/busstat/CMakeLists.txt): two runs
# of the same seed must produce byte-identical JSON (the merged sketches, deltas,
# and quantiles all ride the deterministic simulator), the JSON must carry the
# BUSSTAT_1 schema tag, and a different seed must produce a different hash (the
# stats plane actually depends on the replay, not on wall-clock state). With
# -DGOLDEN=FILE (passed only in IB_TELEMETRY=ON builds) the seed-42 hash line must
# also match the golden. Regenerate it with:
#   build/tools/busstat/busstat --seed 42 --hash > tests/goldens/busstat_hash.txt
foreach(var BUSSTAT WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "busstat_replay.cmake: missing -D${var}=")
  endif()
endforeach()

execute_process(COMMAND ${BUSSTAT} --seed 42 --json --out ${WORKDIR}/stats_a.json
                RESULT_VARIABLE rc1)
execute_process(COMMAND ${BUSSTAT} --seed 42 --json --out ${WORKDIR}/stats_b.json
                RESULT_VARIABLE rc2)
execute_process(COMMAND ${BUSSTAT} --seed 42 --table --out ${WORKDIR}/stats_a.table
                RESULT_VARIABLE rc3)
execute_process(COMMAND ${BUSSTAT} --seed 42 --table --out ${WORKDIR}/stats_b.table
                RESULT_VARIABLE rc4)
if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0 OR NOT rc3 EQUAL 0 OR NOT rc4 EQUAL 0)
  message(FATAL_ERROR "busstat runs failed (rc=${rc1}/${rc2}/${rc3}/${rc4})")
endif()

file(READ ${WORKDIR}/stats_a.json json_a)
file(READ ${WORKDIR}/stats_b.json json_b)
if(NOT json_a STREQUAL json_b)
  message(FATAL_ERROR "busstat JSON is not bit-identical across replays of seed 42")
endif()
file(READ ${WORKDIR}/stats_a.table table_a)
file(READ ${WORKDIR}/stats_b.table table_b)
if(NOT table_a STREQUAL table_b)
  message(FATAL_ERROR "busstat table is not bit-identical across replays of seed 42")
endif()
if(NOT json_a MATCHES "\"schema\": \"BUSSTAT_1\"")
  message(FATAL_ERROR "busstat JSON lacks the BUSSTAT_1 schema tag")
endif()
if(NOT json_a MATCHES "\"overhead_ratio\":")
  message(FATAL_ERROR "busstat JSON lacks the telemetry self-overhead ratio")
endif()

execute_process(COMMAND ${BUSSTAT} --seed 42 --hash
                OUTPUT_VARIABLE hash_42 RESULT_VARIABLE rc5)
execute_process(COMMAND ${BUSSTAT} --seed 43 --hash
                OUTPUT_VARIABLE hash_43 RESULT_VARIABLE rc6)
if(NOT rc5 EQUAL 0 OR NOT rc6 EQUAL 0)
  message(FATAL_ERROR "busstat --hash runs failed (rc=${rc5}/${rc6})")
endif()
if(hash_42 STREQUAL hash_43)
  message(FATAL_ERROR "seeds 42 and 43 produced the same stats hash — "
                      "the stats plane is not sensitive to the replay: ${hash_42}")
endif()
if(DEFINED GOLDEN)
  file(READ ${GOLDEN} golden)
  if(NOT hash_42 STREQUAL golden)
    message(FATAL_ERROR "busstat --seed 42 --hash diverged from ${GOLDEN}: ${hash_42}"
                        "if the change is intentional, regenerate the golden (command above)")
  endif()
endif()
