#!/bin/sh
# SIGTERM mid-load must drain cleanly: the server stops accepting, every
# request it read still gets exactly one response (a result or a
# structured `draining` / `overloaded` rejection), the client sees a
# complete response stream (connect exits 0, or 3 when some request was
# answered `overloaded`), and the server process itself exits 0.
#
# Usage: server_sigterm_drain.sh <shufflebound_cli> [workdir]
set -e
CLI="$1"
DIR="${2:-.}"
cd "$DIR"
rm -f drain_port.txt

"$CLI" make bitonic 16 > drain_b16.txt
: > drain_jobs.jsonl
i=0
while [ $i -lt 40 ]; do
  printf '{"id":"j%d","op":"count-sorted","network_file":"drain_b16.txt","trials":200000,"seed":%d}\n' \
    "$i" "$i" >> drain_jobs.jsonl
  i=$((i + 1))
done

"$CLI" serve --port 0 --port-file drain_port.txt --workers 1 --queue 4 &
SERVER=$!
i=0
while [ $i -lt 100 ]; do
  [ -s drain_port.txt ] && break
  sleep 0.1
  i=$((i + 1))
done
test -s drain_port.txt

"$CLI" connect --port "$(cat drain_port.txt)" drain_jobs.jsonl > drain_out.jsonl &
CLIENT=$!
sleep 0.5
kill -TERM $SERVER
SRC=0
wait $SERVER || SRC=$?
CRC=0
wait $CLIENT || CRC=$?
test "$SRC" -eq 0
if [ "$CRC" -eq 3 ]; then
  grep -q '"code":"overloaded"' drain_out.jsonl
else
  test "$CRC" -eq 0
fi
test "$(wc -l < drain_out.jsonl)" -eq 40
echo "sigterm drain OK"
