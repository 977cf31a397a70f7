"""Single-key config ranges, declared once on their fields, and the check config and LossConfig call."""

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Range:
    """An interval written like "(0, 1]"; an infinite end is no bound, and only a closed one admits inf."""

    interval: str
    note: str = ""

    def refusal(self, key: str, value) -> str | None:
        """Why key may not be value, or None if the range admits it; nan lies in no range."""
        lo, hi = (float(end) for end in self.interval[1:-1].split(","))
        lo_open, hi_open = self.interval[0] == "(", self.interval[-1] == ")"
        if isinstance(value, float) and math.isinf(value) and not (hi == math.inf and not hi_open):
            return f"{key} must be finite"
        if (value > lo if lo_open else value >= lo) and (value < hi if hi_open else value <= hi):
            return None
        if hi < math.inf:
            rule = f"lie in {self.interval}"
        elif lo == 0:
            rule = "be positive" if lo_open else "be nonnegative"
        else:
            rule = f"exceed {lo:g}" if lo_open else f"be >= {lo:g}"
        return f"{key} must {rule}{self.note}"


def ranged(default, interval: str, note: str = ""):
    """A dataclass field with default whose value must lie in interval; note ends its refusal."""
    return field(default=default, metadata={"range": Range(interval, note)})


def range_errors(keyed) -> dict:
    """flat key -> refusal, for each (flat key, field, value) of keyed whose field's range refuses value."""
    declared = ((key, f.metadata["range"], value) for key, f, value in keyed if "range" in f.metadata)
    return {key: why for key, r, value in declared if (why := r.refusal(key, value))}
