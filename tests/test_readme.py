"""The README's library tour runs as written and gives the values its
comments state."""

import math
import re
from pathlib import Path

from revclone import (check_temp_storage, from_map, is_balanced,
                      is_bijective, simulate)

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_and_matches_its_comments():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    scope: dict = {}
    exec(compile(code, str(README), "exec"), scope)
    f = scope["f"]
    assert is_bijective(f) and is_balanced(f)
    assert scope["group"].order() == 362880
    assert math.prod(scope["group"].stats.orbit_lengths) == 362880
    assert scope["group"].contains(from_map(f))
    assert scope["sat"].stats.stop == "closed"
    lift = scope["lift"]
    assert check_temp_storage(lift.realiser, lift.constants,
                              lift.reduct) == "strong"
    assert simulate(scope["nl"], scope["A"]) == f
