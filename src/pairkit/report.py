"""Ordered key/value reports with pass/fail checks.

Reports render as stable `key: value` lines (diff-friendly) and carry enough
structure for the CLI's --json mode.
"""


class Report:
    def __init__(self, title: str):
        self.title = title
        self.entries = []          # ordered (key, value) pairs
        self._failed = []

    def info(self, key: str, value):
        self.entries.append((key, value))

    def check(self, key: str, ok: bool, witness: str | None = None):
        self.entries.append((key, "pass" if ok else "FAIL"))
        if not ok:
            self._failed.append(key)
            if witness:
                self.entries.append((f"{key}-witness", witness))

    def check_equal(self, key: str, got, expected, residue, labels=None):
        """Check got == expected componentwise: equal as written, or by the caller's
        `residue(g, e)`, zero exactly when g = e (subtraction in a free ring, the
        action's `residue` in A); the witness is the first nonzero residue."""
        for i, (g, e) in enumerate(zip(got, expected)):
            if g != e and (diff := residue(g, e)):
                self.check(key, False, (f"{labels[i]}: " if labels else "") + diff.text())
                return
        self.check(key, True)

    def merge(self, other: "Report", prefix: str = ""):
        for key, value in other.entries:
            self.entries.append((prefix + key, value))
        self._failed.extend(prefix + k for k in other._failed)

    @property
    def passed(self) -> bool:
        return not self._failed

    @property
    def failures(self):
        return list(self._failed)

    def get(self, key: str):
        for k, v in self.entries:
            if k == key:
                return v
        raise KeyError(key)

    def lines(self):
        out = [f"report: {self.title}"]
        out.extend(f"{k}: {v}" for k, v in self.entries)
        out.append(f"status: {'ok' if self.passed else 'check-failed'}")
        return out

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def to_json(self) -> str:
        import json
        data = {"report": self.title}
        for k, v in self.entries:
            data[k] = v
        data["status"] = "ok" if self.passed else "check-failed"
        return json.dumps(data, indent=2) + "\n"

    def __repr__(self):
        return f"Report({self.title!r}, passed={self.passed})"
