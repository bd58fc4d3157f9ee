"""Every rule: seeded-violation fixtures fire, clean twins stay silent."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import all_rules, lint_file, lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def rule_ids(findings) -> list[str]:
    return [f.rule_id for f in findings]


class TestRegistry:
    def test_seven_domain_rules_registered(self):
        ids = [cls.rule_id for cls in all_rules()]
        assert ids == [
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
        ]

    def test_every_rule_documents_itself(self):
        for cls in all_rules():
            assert cls.title, cls.rule_id
            assert len(cls.rationale) > 40, cls.rule_id
            assert cls.severity == "error"


#: fixture stem -> rule id expected from its ``_bad`` file.
CASES = {
    "rl001": "RL001",
    "rl002": "RL002",
    "rl003": "RL003",
    "rl004": "RL004",
    "rl005": "RL005",
    "rl006": "RL006",
    "rl007": "RL007",
}


class TestFixturePairs:
    @pytest.mark.parametrize("stem", sorted(CASES))
    def test_bad_fixture_fires_its_rule(self, stem):
        findings = lint_file(FIXTURES / f"{stem}_bad.py.txt")
        ids = rule_ids(findings)
        assert CASES[stem] in ids
        # At least two distinct violation sites per fixture, so a rule
        # that stops scanning after its first hit cannot pass.
        assert ids.count(CASES[stem]) >= 2

    @pytest.mark.parametrize("stem", sorted(CASES))
    def test_clean_twin_is_silent(self, stem):
        findings = lint_file(FIXTURES / f"{stem}_ok.py.txt")
        assert findings == []


class TestDeterminismRule:
    def test_alias_does_not_dodge_the_rule(self):
        findings = lint_source(
            "import numpy.random as nprand\nx = nprand.rand(3)\n", "t.py"
        )
        assert rule_ids(findings) == ["RL001"]

    def test_from_import_of_legacy_fn(self):
        findings = lint_source(
            "from numpy.random import randint\nx = randint(0, 5)\n", "t.py"
        )
        assert rule_ids(findings) == ["RL001"]

    def test_generator_methods_are_sanctioned(self):
        clean = (
            "import numpy as np\n"
            "rng = np.random.default_rng(3)\n"
            "x = rng.random(4)\n"
            "y = rng.choice([1, 2])\n"
            "seq = np.random.SeedSequence(3)\n"
        )
        assert lint_source(clean, "t.py") == []

    def test_clock_seed_nested_in_expression(self):
        findings = lint_source(
            "import time\nimport numpy as np\n"
            "rng = np.random.default_rng(int(time.time()) % 2**32)\n",
            "t.py",
        )
        assert rule_ids(findings) == ["RL001"]


class TestPackedRule:
    def test_allowed_modules_may_pack(self):
        src = "import numpy as np\nb = np.packbits(np.ones(8, np.uint8))\n"
        assert lint_source(src, "t.py", module="repro.hv.packing") == []
        assert rule_ids(lint_source(src, "t.py", module="repro.hv.ops")) == [
            "RL002"
        ]

    def test_astype_heuristic_keys_on_packed_names(self):
        flagged = "def f(packed):\n    return packed.astype('int64')\n"
        clean = "def f(counts):\n    return counts.astype('int64')\n"
        assert rule_ids(lint_source(flagged, "t.py")) == ["RL002"]
        assert lint_source(clean, "t.py") == []

    def test_unsigned_cast_of_packed_is_fine(self):
        src = "def f(packed):\n    return packed.astype('uint64')\n"
        assert lint_source(src, "t.py") == []


class TestAsyncRule:
    def test_sync_function_may_block(self):
        src = "import time\ndef f():\n    time.sleep(1)\n"
        assert lint_source(src, "t.py") == []

    def test_nested_async_inside_sync_is_flagged(self):
        src = (
            "import time\n"
            "def outer():\n"
            "    async def inner():\n"
            "        time.sleep(1)\n"
            "    return inner\n"
        )
        assert rule_ids(lint_source(src, "t.py")) == ["RL003"]


class TestErrorTaxonomyRule:
    def test_out_of_scope_module_not_checked(self):
        src = "def f():\n    raise ValueError('deep library math')\n"
        assert lint_source(src, "t.py", module="repro.hv.ops") == []
        assert rule_ids(
            lint_source(src, "t.py", module="repro.hdlock.keygen")
        ) == ["RL004"]

    def test_logging_handler_is_not_swallowing(self):
        src = (
            "def f(fn, log):\n"
            "    try:\n"
            "        return fn()\n"
            "    except Exception as exc:\n"
            "        log.warning('failed: %s', exc)\n"
            "        return None\n"
        )
        assert lint_source(src, "t.py", module="repro.serving.x") == []


class TestGrowthRule:
    def test_out_of_scope_module_not_checked(self):
        src = (
            "class Log:\n"
            "    def __init__(self):\n"
            "        self._events = []\n"
            "    def record(self, e):\n"
            "        self._events.append(e)\n"
        )
        assert lint_source(src, "t.py", module="repro.experiments.x") == []
        assert rule_ids(
            lint_source(src, "t.py", module="repro.serving.x")
        ) == ["RL006"]

    def test_swap_drain_is_size_custody(self):
        src = (
            "class Batcher:\n"
            "    def __init__(self):\n"
            "        self._pending = []\n"
            "    def enqueue(self, item):\n"
            "        self._pending.append(item)\n"
            "    def flush(self):\n"
            "        window, self._pending = self._pending, []\n"
            "        return window\n"
        )
        assert lint_source(src, "t.py", module="repro.serving.x") == []

    def test_bounded_constructors_are_not_candidates(self):
        src = (
            "import asyncio\n"
            "import collections\n"
            "class Bounded:\n"
            "    def __init__(self):\n"
            "        self._q = asyncio.Queue(maxsize=8)\n"
            "        self._w = collections.deque(maxlen=8)\n"
            "    async def feed(self, x):\n"
            "        self._q.put_nowait(x)\n"
            "        self._w.append(x)\n"
        )
        assert lint_source(src, "t.py", module="repro.serving.x") == []

    def test_bare_get_reference_is_a_drain_path(self):
        src = (
            "import asyncio\n"
            "class Bridge:\n"
            "    def __init__(self):\n"
            "        self._inbox = asyncio.Queue()\n"
            "    async def pump(self, run):\n"
            "        await run(self._inbox.get)\n"
            "    async def deliver(self, m):\n"
            "        await self._inbox.put(m)\n"
        )
        assert lint_source(src, "t.py", module="repro.serving.x") == []


class TestPrintingRule:
    def test_main_modules_are_exempt(self):
        src = "print('serving on :8100')\n"
        assert lint_source(src, "t.py", module="repro.serving.__main__") == []
        assert rule_ids(
            lint_source(src, "t.py", module="repro.serving.service")
        ) == ["RL007"]

    def test_explicit_stream_is_allowed(self):
        src = "import sys\nprint('diag', file=sys.stderr)\n"
        assert lint_source(src, "t.py", module="repro.analysis.cli") == []

    def test_out_of_package_code_not_checked(self):
        src = "print('tests may print')\n"
        assert lint_source(src, "t.py", module="tests.serving.t") == []


class TestResourceRule:
    def test_reassignment_to_none_still_flagged(self):
        # `fh = None` later is not a release; only close() in a finally
        # (or a custody transfer) counts.
        src = "def f(p):\n    fh = open(p)\n    fh = None\n"
        assert rule_ids(lint_source(src, "t.py")) == ["RL005"]

    def test_contextlib_closing_is_custody(self):
        src = (
            "from contextlib import closing\n"
            "def f(p):\n"
            "    fh = open(p)\n"
            "    with closing(fh) as g:\n"
            "        return g.read()\n"
        )
        assert lint_source(src, "t.py") == []
