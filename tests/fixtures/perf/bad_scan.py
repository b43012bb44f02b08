"""DYN1002 fixture: linear scans on the per-event path."""


def match(queue, want):  # dyn: hot
    pending = list(queue)
    if want in pending:       # DYN1002: membership test against a list
        pending.remove(want)  # DYN1002: whole-list scan
    if pending:
        return pending.pop(0)  # DYN1002: O(n) shift per event
    return None
