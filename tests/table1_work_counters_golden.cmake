# Compares the structural work counters of a table1 run's metrics.json, the
# byte sizes of the audit.bin and timeline.bin beside it, and the byte
# sizes of a durable run's journal.bin and newest snapshot with the golden
# copy. These count work items (probes attempted and succeeded, record
# copies archived, panel units kept and cells observed and masked,
# route-cache reads, BGP table builds, SVD calls and their Jacobi sweeps,
# QR calls) and bytes written, never floating-point results,
# so they hold byte for byte on any host; a change that moves one must
# update the golden on purpose. The snapshot holds generator state only,
# so a change that puts per-step or per-record state back into it moves
# its size.
#
#   cmake -DMETRICS=<metrics.json> -DJOURNAL=<journal.bin>
#         -DSNAPSHOT=<snap-*.bin> -DGOLDEN=<counters file>
#         -P table1_work_counters_golden.cmake
set(counters
  measure.probes.attempted
  measure.probes.succeeded
  measure.store.archived
  measure.panel.units_kept
  measure.panel.cells_observed
  measure.panel.cells_masked
  netsim.bgp.route_cache_hits
  netsim.bgp.route_cache_misses
  netsim.bgp.tables_computed
  stats.svd.calls
  stats.svd.sweeps
  stats.qr.calls)
file(READ ${METRICS} metrics)
set(actual "")
foreach(counter ${counters})
  string(REPLACE "." "\\." pattern "${counter}")
  string(REGEX MATCH "\"${pattern}\": *([0-9]+)" match "${metrics}")
  if(NOT match)
    message(FATAL_ERROR "${METRICS} has no counter ${counter}")
  endif()
  string(APPEND actual "${counter} ${CMAKE_MATCH_1}\n")
endforeach()
get_filename_component(run_dir ${METRICS} DIRECTORY)
foreach(artifact audit.bin timeline.bin)
  if(NOT EXISTS ${run_dir}/${artifact})
    message(FATAL_ERROR "${run_dir} has no ${artifact}")
  endif()
  file(SIZE ${run_dir}/${artifact} bytes)
  string(APPEND actual "${artifact}.bytes ${bytes}\n")
endforeach()
foreach(file JOURNAL SNAPSHOT)
  if(NOT EXISTS ${${file}})
    message(FATAL_ERROR "no durable file at ${${file}}")
  endif()
endforeach()
file(SIZE ${JOURNAL} bytes)
string(APPEND actual "journal.bin.bytes ${bytes}\n")
file(SIZE ${SNAPSHOT} bytes)
string(APPEND actual "snapshot.bin.bytes ${bytes}\n")
file(READ ${GOLDEN} golden)
if(NOT actual STREQUAL golden)
  message(FATAL_ERROR
    "work counters differ from ${GOLDEN}\n"
    "--- golden\n${golden}--- actual\n${actual}")
endif()
message(STATUS "work counters match ${GOLDEN}")
