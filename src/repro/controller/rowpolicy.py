"""Dynamic SDRAM row-policy predictor (Xu, 2006 — paper ref [22]).

The paper's §2.2 describes it: *"A dynamic SDRAM controller policy
predictor ... reduces main memory access latency by using a history
based predictor similar to branch predictors to make the decision
whether or not to leave the accessed row open for each access."*

Implementation: one 2-bit saturating counter per bank (like a
bimodal branch predictor).  Counter >= 2 predicts "close" (precharge
automatically after the column access), otherwise "leave open".
Training uses the ground truth each subsequent access reveals:

* a row **hit** proves leaving the row open was right -> toward open;
* a row **conflict** proves it was wrong -> toward close;
* a row **empty** after a predicted close is right if the new access
  wanted a *different* row (the precharge was free) and wrong if it
  re-targets the row we closed (we destroyed a hit).

Selectable as ``row_policy="predictive"`` on any mechanism; the
row-policy ablation benchmark compares it against static open page
and close-page-autoprecharge.
"""

from __future__ import annotations

from typing import Dict, Tuple

BankKey = Tuple[int, int]

#: 2-bit counter bounds; >= CLOSE_THRESHOLD predicts close.
COUNTER_MAX = 3
CLOSE_THRESHOLD = 2


class RowPolicyPredictor:
    """Per-bank bimodal open/close predictor."""

    def __init__(self, initial: int = 1) -> None:
        # Start biased toward open page (the paper's baseline).
        self._counters: Dict[BankKey, int] = {}
        self._last_closed_row: Dict[BankKey, int] = {}
        self._initial = initial
        self.predictions = 0
        self.close_predictions = 0

    def _counter(self, key: BankKey) -> int:
        return self._counters.get(key, self._initial)

    def _bump(self, key: BankKey, toward_close: bool) -> None:
        value = self._counter(key)
        if toward_close:
            value = min(COUNTER_MAX, value + 1)
        else:
            value = max(0, value - 1)
        self._counters[key] = value

    # ------------------------------------------------------------------

    def should_close(self, rank: int, bank: int) -> bool:
        """Predict for the access being issued now."""
        self.predictions += 1
        close = self._counter((rank, bank)) >= CLOSE_THRESHOLD
        if close:
            self.close_predictions += 1
        return close

    def note_closed(self, rank: int, bank: int, row: int) -> None:
        """Record which row an auto-precharge just closed."""
        self._last_closed_row[(rank, bank)] = row

    def observe(self, access, row_state) -> None:
        """Train on the outcome the current access reveals."""
        key = (access.rank, access.bank)
        name = row_state.value
        if name == "hit":
            self._bump(key, toward_close=False)
        elif name == "conflict":
            self._bump(key, toward_close=True)
        else:  # empty: judged against the row we last closed here
            closed = self._last_closed_row.get(key)
            if closed is not None:
                self._bump(key, toward_close=closed != access.row)

    @property
    def close_rate(self) -> float:
        """Fraction of predictions that chose to close."""
        if not self.predictions:
            return 0.0
        return self.close_predictions / self.predictions


__all__ = ["CLOSE_THRESHOLD", "COUNTER_MAX", "RowPolicyPredictor"]
