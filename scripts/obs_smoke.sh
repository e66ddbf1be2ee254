#!/usr/bin/env bash
# Observability smoke (the ctest `obs_smoke` entry): drives the whole
# flight-recorder surface end to end against a live daemon.
#
#   1. saiyand --record writes two deterministic traces;
#   2. saiyand serves them on 2 workers, throttled, with --trace-out;
#   3. `metrics` is scraped mid-replay and validated as Prometheus
#      text exposition (HELP/TYPE before samples, numeric values,
#      cumulative non-decreasing buckets, le="+Inf" == _count);
#   4. `dump_trace` must be loadable JSON with >= 2 distinct worker
#      threads that each recorded at least one event;
#   5. `stats --json` must parse as a JSON object with numeric
#      frames_decoded;
#   6. the link telescope: post-replay `metrics` must carry the link
#      families within the top-K cardinality bound with per-link frame
#      counts summing to frames_decoded, `links` must list the
#      registry, `links --json` must round-trip through json.tool, and
#      sort/limit options must apply (bad options are a clean error);
#   7. the metric inventory: every stats key and Prometheus family a
#      scrape carries is a row of the docs/OBSERVABILITY.md table, and
#      every row shows up in the drained scrape;
#   8. after drain + SIGTERM the --trace-out file must be a loadable
#      timeline too.
#
# Usage: obs_smoke.sh <saiyand> <saiyand-control>
set -euo pipefail

SAIYAND=${1:?usage: obs_smoke.sh <saiyand> <saiyand-control>}
CONTROL=${2:?usage: obs_smoke.sh <saiyand> <saiyand-control>}
PY=${PYTHON:-python3}

WORK=$(mktemp -d "${TMPDIR:-/tmp}/saiyan_obs_smoke.XXXXXX")
SOCK="$WORK/control.sock"
DAEMON_PID=

cleanup() {
  [[ -n $DAEMON_PID ]] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

stat_value() {  # stat_value <key> <stats-text>
  awk -v k="$1" '$1 == k { print $2; found = 1 } END { exit !found }' <<<"$2"
}

# --- 1. record two traces ----------------------------------------------
"$SAIYAND" --record "$WORK/a.sytrc" --tags 2 --packets 3 --payload-symbols 16
"$SAIYAND" --record "$WORK/b.sytrc" --tags 2 --packets 3 --payload-symbols 16

# --- 2. serve both on two workers, throttled, recording a timeline -----
"$SAIYAND" --trace "$WORK/a.sytrc" --trace "$WORK/b.sytrc" \
  --socket "$SOCK" --workers 2 --throttle-us 2000 \
  --trace-out "$WORK/timeline.json" \
  >"$WORK/daemon.out" 2>"$WORK/daemon.err" &
DAEMON_PID=$!

STATS=
for _ in $(seq 1 100); do
  if STATS=$("$CONTROL" --socket "$SOCK" stats 2>/dev/null); then
    break
  fi
  kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$WORK/daemon.err"; echo "daemon died before serving"; exit 1; }
  sleep 0.1
done
[[ -n $STATS ]] || { echo "control socket never came up"; exit 1; }

EXPECTED=$(stat_value markers_expected "$STATS")
[[ $EXPECTED -gt 0 ]] || { echo "no markers expected?"; exit 1; }

# --- 3. scrape metrics mid-replay and validate the exposition ----------
"$CONTROL" --socket "$SOCK" metrics >"$WORK/metrics.prom"
"$PY" - "$WORK/metrics.prom" <<'EOF'
import re, sys

path = sys.argv[1]
helps, types, families_seen = {}, {}, []
samples = {}          # full series name -> [(labels, value)]
sample_re = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? '
    r'(-?(?:[0-9]*\.)?[0-9]+(?:[eE][-+]?[0-9]+)?|\+Inf|-Inf|NaN)$')

def base_family(name):
    for suffix in ('_bucket', '_sum', '_count'):
        if name.endswith(suffix) and name[:-len(suffix)] in types \
                and types[name[:-len(suffix)]] == 'histogram':
            return name[:-len(suffix)]
    return name

for lineno, raw in enumerate(open(path), 1):
    line = raw.rstrip('\n')
    if not line:
        continue
    if line.startswith('# HELP '):
        _, _, rest = line.split(' ', 2)[0], None, line[7:]
        name = rest.split(' ', 1)[0]
        assert name not in helps, f'line {lineno}: duplicate HELP {name}'
        helps[name] = True
        continue
    if line.startswith('# TYPE '):
        rest = line[7:]
        name, mtype = rest.split(' ', 1)
        assert name not in types, f'line {lineno}: duplicate TYPE {name}'
        assert mtype in ('counter', 'gauge', 'histogram'), \
            f'line {lineno}: bad type {mtype}'
        assert name in helps, f'line {lineno}: TYPE {name} without HELP'
        types[name] = mtype
        families_seen.append(name)
        continue
    assert not line.startswith('#'), f'line {lineno}: stray comment'
    m = sample_re.match(line)
    assert m, f'line {lineno}: unparseable sample: {line!r}'
    name = m.group(1)
    fam = base_family(name)
    assert fam in types, f'line {lineno}: sample {name} without TYPE'
    samples.setdefault(name, []).append((m.group(3) or '', m.group(4)))

assert 'saiyan_frames_decoded_total' in samples, 'missing frames counter'
assert 'saiyan_uptime_seconds' in samples, 'missing uptime gauge'
assert types.get('saiyan_frame_latency_microseconds') == 'histogram'
assert types.get('saiyan_stage_latency_microseconds') == 'histogram'

# Link telescope families: declared with the right types, the frames
# family always has its tag="other" aggregate (never sample-less), and
# per-link series respect the top-K cardinality bound (K = 10,
# plus the "other" bucket).
assert types.get('saiyan_links_tracked') == 'gauge'
assert types.get('saiyan_link_evictions_total') == 'counter'
assert types.get('saiyan_noise_floor_valid') == 'gauge'
assert types.get('saiyan_noise_floor_db') == 'gauge'
assert types.get('saiyan_link_frames_total') == 'counter'
assert types.get('saiyan_link_snr_db') == 'gauge'
assert types.get('saiyan_frame_latency_saturated_total') == 'counter'
assert types.get('saiyan_stage_latency_saturated_total') == 'counter'
link_frames = samples['saiyan_link_frames_total']
assert any('tag="other"' in labels for labels, _ in link_frames), \
    'saiyan_link_frames_total missing the tag="other" aggregate'
assert len(link_frames) <= 10 + 1, \
    f'link cardinality bound blown: {len(link_frames)} series'
assert len(samples.get('saiyan_link_snr_db', [])) <= 10

stages = set()
for labels, _ in samples.get('saiyan_stage_latency_microseconds_count', []):
    m = re.search(r'stage="([^"]*)"', labels)
    if m:
        stages.add(m.group(1))
expected = {'scan', 'decode', 'sic_cancel', 'sic_rescan',
            'gap_realign', 'deliver'}
assert stages == expected, f'stage labels {stages} != {expected}'

# Histogram discipline: per-series buckets are cumulative and
# non-decreasing, and the +Inf bucket equals _count.
for fam, mtype in types.items():
    if mtype != 'histogram':
        continue
    by_series = {}
    for labels, value in samples.get(fam + '_bucket', []):
        le = re.search(r'le="([^"]*)"', labels).group(1)
        key = re.sub(r'le="[^"]*",?', '', labels).strip(',')
        by_series.setdefault(key, []).append((le, float(value)))
    counts = {labels: float(v)
              for labels, v in samples.get(fam + '_count', [])}
    assert by_series, f'{fam}: no buckets'
    for key, buckets in by_series.items():
        prev = -1.0
        inf = None
        for le, v in buckets:  # emission order is ascending le
            assert v >= prev, f'{fam}{{{key}}}: bucket regressed at le={le}'
            prev = v
            if le == '+Inf':
                inf = v
        assert inf is not None, f'{fam}{{{key}}}: no +Inf bucket'
        assert inf == counts.get(key), \
            f'{fam}{{{key}}}: +Inf {inf} != count {counts.get(key)}'
print(f'metrics ok: {len(families_seen)} families, '
      f'{sum(len(v) for v in samples.values())} samples')
EOF

# --- 4. dump the flight recorder mid-replay ----------------------------
"$CONTROL" --socket "$SOCK" dump_trace >"$WORK/dump.json"
"$PY" -m json.tool "$WORK/dump.json" >/dev/null
"$PY" - "$WORK/dump.json" <<'EOF'
import json, sys

events = json.load(open(sys.argv[1]))['traceEvents']
names = {e['args']['name']: e['tid'] for e in events
         if e.get('ph') == 'M' and e.get('name') == 'thread_name'}
workers = {name: tid for name, tid in names.items()
           if name.startswith('worker')}
assert len(workers) >= 2, f'expected >=2 worker threads, got {names}'
per_tid = {}
for e in events:
    if e.get('ph') in ('B', 'E', 'X', 'i'):
        per_tid[e['tid']] = per_tid.get(e['tid'], 0) + 1
for name, tid in workers.items():
    assert per_tid.get(tid, 0) >= 1, f'{name} (tid {tid}) has no events'
assert any(e.get('name') in ('trace_job', 'scan', 'decode')
           for e in events), 'no pipeline events in the dump'
print(f'dump_trace ok: {len(events)} events from {len(names)} threads')
EOF

# --- 5. stats --json ----------------------------------------------------
"$CONTROL" --socket "$SOCK" stats --json >"$WORK/stats.json"
"$PY" - "$WORK/stats.json" <<'EOF'
import json, sys
stats = json.load(open(sys.argv[1]))
assert isinstance(stats, dict) and stats, 'stats --json is not an object'
assert isinstance(stats['frames_decoded'], (int, float)), stats
assert isinstance(stats['uptime_s'], (int, float)), stats
print(f'stats --json ok: {len(stats)} keys')
EOF

# --- finish the replay --------------------------------------------------
DONE=0
for _ in $(seq 1 300); do
  STATS=$("$CONTROL" --socket "$SOCK" stats)
  DECODED=$(stat_value frames_decoded "$STATS")
  if [[ $DECODED -ge $EXPECTED ]]; then DONE=1; break; fi
  kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$WORK/daemon.err"; echo "daemon died mid-replay"; exit 1; }
  sleep 0.1
done
[[ $DONE -eq 1 ]] || { echo "timed out: decoded $DECODED of $EXPECTED"; exit 1; }

"$CONTROL" --socket "$SOCK" drain

# --- 6. link telescope: metrics families, links op, --json, options ----
# With the replay drained the registry is settled: per-link frame
# counts must sum exactly to the decode counter.
"$CONTROL" --socket "$SOCK" metrics >"$WORK/metrics_drained.prom"
"$PY" - "$WORK/metrics_drained.prom" <<'EOF'
import re, sys

link_sum, decoded, tracked = 0.0, None, None
for line in open(sys.argv[1]):
    line = line.rstrip('\n')
    if line.startswith('saiyan_link_frames_total{'):
        link_sum += float(line.rsplit(' ', 1)[1])
    elif line.startswith('saiyan_frames_decoded_total '):
        decoded = float(line.rsplit(' ', 1)[1])
    elif line.startswith('saiyan_links_tracked '):
        tracked = float(line.rsplit(' ', 1)[1])
assert decoded is not None and decoded > 0, 'no frames decoded'
assert link_sum == decoded, \
    f'link frame sum {link_sum} != frames_decoded {decoded}'
assert tracked is not None and tracked >= 1, f'links_tracked {tracked}'
print(f'link metrics ok: {link_sum:.0f} frames across {tracked:.0f} links')
EOF

LINKS=$("$CONTROL" --socket "$SOCK" links)
stat_value links_tracked "$LINKS" >/dev/null \
  || { echo "links payload missing links_tracked"; exit 1; }
FRAMES_TOTAL=$(stat_value frames_total "$LINKS")
[[ $FRAMES_TOTAL -gt 0 ]] || { echo "links frames_total is zero"; exit 1; }

"$CONTROL" --socket "$SOCK" links --json >"$WORK/links.json"
"$PY" - "$WORK/links.json" <<'EOF'
import json, sys
links = json.load(open(sys.argv[1]))
assert isinstance(links, dict) and links, 'links --json is not an object'
assert isinstance(links['links_tracked'], (int, float)), links
assert isinstance(links['frames_total'], (int, float)), links
print(f'links --json ok: {len(links)} keys')
EOF

TOP1=$("$CONTROL" --socket "$SOCK" links --top 1 --sort snr)
LISTED=$(stat_value links_listed "$TOP1")
[[ $LISTED -le 1 ]] || { echo "links --top 1 listed $LISTED"; exit 1; }
if "$CONTROL" --socket "$SOCK" links --sort bogus 2>/dev/null; then
  echo "links --sort bogus should be a daemon-reported error"; exit 1
fi

# --- 7. metric inventory: scrapes and the docs table agree -------------
# Worker and stage indices are normalised to the table's <N> / <name>.
INVENTORY="$(cd "$(dirname "$0")/.." && pwd)/docs/OBSERVABILITY.md"
"$CONTROL" --socket "$SOCK" stats >"$WORK/stats_drained.txt"
"$PY" - "$INVENTORY" "$WORK/stats_drained.txt" "$WORK/metrics.prom" \
  "$WORK/metrics_drained.prom" <<'EOF'
import re, sys

doc, stats_path, mid_prom, drained_prom = sys.argv[1:]
keys, families, in_table = set(), set(), False
for line in open(doc):
    if line.startswith('| stats key | Prometheus series |'):
        in_table = True
        continue
    if not in_table:
        continue
    if not line.startswith('|'):
        break
    cells = [c.strip().strip('`') for c in line.strip().strip('|').split('|')]
    if set(cells[0]) <= {'-'}:
        continue  # header separator
    if cells[0] != '—':
        keys.add(cells[0])
    if cells[1] != '—':
        families.add(cells[1].split('{', 1)[0])
assert keys and families, f'no inventory table in {doc}'

def norm(key):
    key = re.sub(r'^worker\.\d+\.', 'worker.<N>.', key)
    return re.sub(r'^stage\.[a-z_]+\.', 'stage.<name>.', key)

def prom_families(path):
    return {line.split()[2] for line in open(path)
            if line.startswith('# TYPE ')}

scraped = {norm(line.split(' ', 1)[0]) for line in open(stats_path)
           if line.strip()}
assert not scraped - keys, \
    f'stats keys missing from {doc}: {sorted(scraped - keys)}'
# noise_floor_dbm is left out of stats until the floor is valid.
stale = keys - scraped - {'noise_floor_dbm'}
assert not stale, f'{doc} rows with no stats key: {sorted(stale)}'
for path in (mid_prom, drained_prom):
    missing = prom_families(path) - families
    assert not missing, f'families missing from {doc}: {sorted(missing)}'
stale = families - prom_families(drained_prom)
assert not stale, f'{doc} rows with no family: {sorted(stale)}'
print(f'inventory ok: {len(keys)} stats keys, {len(families)} families')
EOF

# --- 8. stop; check --trace-out ----------------------------------------
kill -TERM "$DAEMON_PID"
for _ in $(seq 1 100); do
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
  echo "daemon ignored SIGTERM"; exit 1
fi
wait "$DAEMON_PID" || { echo "daemon exited nonzero"; exit 1; }
DAEMON_PID=

[[ -s $WORK/timeline.json ]] || { echo "--trace-out wrote nothing"; exit 1; }
"$PY" -m json.tool "$WORK/timeline.json" >/dev/null \
  || { echo "--trace-out file is not valid JSON"; exit 1; }

echo "obs_smoke: metrics + dump_trace + stats --json + links + inventory + --trace-out all valid"
