# Replay-determinism smoke for busprof (see tools/busprof/CMakeLists.txt): two runs
# of the same seed must produce byte-identical JSON and collapsed-stack reports, a
# different seed must produce a different hash (the profile actually depends on the
# replay), and the hash line must carry reconciled=1. With -DGOLDEN=FILE (passed
# only in IB_TELEMETRY=ON builds) the seed-42 hash line must also match the golden.
# Regenerate it with:
#   build/tools/busprof/busprof --seed 42 --hash > tests/goldens/busprof_hash.txt
foreach(var BUSPROF WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "busprof_replay.cmake: missing -D${var}=")
  endif()
endforeach()

execute_process(COMMAND ${BUSPROF} --seed 42 --json --out ${WORKDIR}/prof_a.json
                RESULT_VARIABLE rc1)
execute_process(COMMAND ${BUSPROF} --seed 42 --json --out ${WORKDIR}/prof_b.json
                RESULT_VARIABLE rc2)
execute_process(COMMAND ${BUSPROF} --seed 42 --collapsed --out ${WORKDIR}/prof_a.folded
                RESULT_VARIABLE rc3)
execute_process(COMMAND ${BUSPROF} --seed 42 --collapsed --out ${WORKDIR}/prof_b.folded
                RESULT_VARIABLE rc4)
if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0 OR NOT rc3 EQUAL 0 OR NOT rc4 EQUAL 0)
  message(FATAL_ERROR "busprof runs failed (rc=${rc1}/${rc2}/${rc3}/${rc4})")
endif()

file(READ ${WORKDIR}/prof_a.json json_a)
file(READ ${WORKDIR}/prof_b.json json_b)
if(NOT json_a STREQUAL json_b)
  message(FATAL_ERROR "busprof JSON is not bit-identical across replays of seed 42")
endif()
file(READ ${WORKDIR}/prof_a.folded folded_a)
file(READ ${WORKDIR}/prof_b.folded folded_b)
if(NOT folded_a STREQUAL folded_b)
  message(FATAL_ERROR "busprof collapsed stacks are not bit-identical across replays")
endif()
if(NOT json_a MATCHES "\"schema\":\"BUSPROF_1\"")
  message(FATAL_ERROR "busprof JSON lacks the BUSPROF_1 schema tag")
endif()
if(NOT json_a MATCHES "\"reconciled\":true")
  message(FATAL_ERROR "busprof JSON reports unreconciled stage sums")
endif()

execute_process(COMMAND ${BUSPROF} --seed 42 --hash
                OUTPUT_VARIABLE hash_42 RESULT_VARIABLE rc5)
execute_process(COMMAND ${BUSPROF} --seed 43 --hash
                OUTPUT_VARIABLE hash_43 RESULT_VARIABLE rc6)
if(NOT rc5 EQUAL 0 OR NOT rc6 EQUAL 0)
  message(FATAL_ERROR "busprof --hash runs failed (rc=${rc5}/${rc6})")
endif()
if(NOT hash_42 MATCHES "reconciled=1")
  message(FATAL_ERROR "busprof hash line is not reconciled: ${hash_42}")
endif()
if(hash_42 STREQUAL hash_43)
  message(FATAL_ERROR "seeds 42 and 43 produced the same profile hash — "
                      "the profile is not sensitive to the replay: ${hash_42}")
endif()
if(DEFINED GOLDEN)
  file(READ ${GOLDEN} golden)
  if(NOT hash_42 STREQUAL golden)
    message(FATAL_ERROR "busprof --seed 42 --hash diverged from ${GOLDEN}: ${hash_42}"
                        "if the change is intentional, regenerate the golden (command above)")
  endif()
endif()
