"""DYN1003 fixture: nested iteration over ranks x rows."""


def exchange(ranks, rows_of):  # dyn: hot
    moved = 0
    for r in ranks:                # outer: iterates the world
        for row in rows_of[r]:     # DYN1003: quadratic in world size
            moved += row
    return moved
