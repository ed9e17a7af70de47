#!/bin/sh
# Build certdb and the serve benchmark from this checkout, then run it:
#   sh servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# from the root of a certdb source tree.  Everything the run leaves
# behind goes to _build/ and .servebench/.
set -eu
if [ ! -f dune-project ] || [ ! -f bin/certdb.ml ] || [ ! -d lib/service ]; then
  echo "servebench: run from the root of a certdb source tree" >&2
  exit 2
fi
# the dune cache lives outside the tree; keep the build inside it
DUNE_CACHE=disabled dune build --root . ./bin/certdb.exe ./servebench/main.exe 1>&2
# Pin the benchmark and the server it spawns to one CPU, the first this
# process may use: a closed-loop request then passes between client and
# server by a context switch on that CPU, not by waking an idle one.
cpu=$(taskset -cp $$ 2>/dev/null | sed 's/.*: *//; s/[,-].*//') || cpu=
if [ -n "$cpu" ]; then
  exec taskset -c "$cpu" ./_build/default/servebench/main.exe --certdb ./_build/default/bin/certdb.exe "$@"
fi
exec ./_build/default/servebench/main.exe --certdb ./_build/default/bin/certdb.exe "$@"
