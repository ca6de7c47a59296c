"""The chaos harness's leg inventory (scripts/chaos_harness.py --list).

Every leg is a crash-safety guarantee of the campaign layer; deleting a
supervision mechanism must never silently delete the leg that shows the
failure it guards.  The full harness runs the legs; this checks that the
set of legs is exactly the one below.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

QUEUE_LEGS = ("sigkill", "hang", "corrupt", "mute", "contention", "read-only")
LEGS = {
    *(f"{leg}[{backend}]" for leg in QUEUE_LEGS
      for backend in ("local-supervised", "dir-queue")),
    "stale-fence", "campaign-kill", "torn-journal", "journalled-failure",
    "compaction", "poison", "unwritable-dir", "dead-on-start",
}


def test_chaos_harness_lists_every_leg():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "chaos_harness.py"),
         "--list"],
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        capture_output=True, text=True, timeout=120, check=True,
    )
    listed = proc.stdout.split()
    assert len(listed) == len(set(listed))
    assert set(listed) == LEGS
