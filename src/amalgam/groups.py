"""Small-scale group machinery: abelianization triviality and coset enumeration.

Presentations use g generators; relator words encode generator g applied
forward as 2g and inverted as 2g+1.
"""

from __future__ import annotations


def smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form of an integer matrix."""
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    diag = []
    t = 0
    while t < nrows and t < ncols:
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(t, ncols):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        dirty = True
            for j in range(t + 1, ncols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                break
        diag.append(abs(m[t][t]))
        t += 1
    return diag


def abelianization_is_trivial(rows: list[list[int]], ngens: int) -> bool:
    """Whether Z^ngens modulo the row span of the relator matrix is trivial."""
    if ngens == 0:
        return True
    if not rows:
        return False
    diag = smith_diagonal(rows)
    return len(diag) == ngens and all(d == 1 for d in diag)


class _CosetTable:
    """Union-find-backed coset table; direction 2g pairs with its inverse 2g+1."""

    def __init__(self, ndirs: int):
        self.ndirs = ndirs
        self.parent: list[int] = []
        self.rows: list[list[int | None]] = []
        self.live = 0

    def add(self) -> int:
        c = len(self.parent)
        self.parent.append(c)
        self.rows.append([None] * self.ndirs)
        self.live += 1
        return c

    def find(self, c: int) -> int:
        while self.parent[c] != c:
            self.parent[c] = self.parent[self.parent[c]]
            c = self.parent[c]
        return c

    def step(self, c: int, d: int):
        n = self.rows[self.find(c)][d]
        return None if n is None else self.find(n)

    def deduce(self, c: int, d: int, e: int):
        """Record c·d = e, merging cosets when the entry is already taken."""
        c, e = self.find(c), self.find(e)
        cur = self.rows[c][d]
        if cur is not None:
            self.merge(self.find(cur), e)
            return
        self.rows[c][d] = e
        back = self.rows[e][d ^ 1]
        self.rows[e][d ^ 1] = c
        if back is not None and self.find(back) != c:
            self.merge(self.find(back), c)

    def merge(self, a: int, b: int):
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            self.parent[b] = a
            self.live -= 1
            row = self.rows[b]
            self.rows[b] = [None] * self.ndirs
            for d in range(self.ndirs):
                n = row[d]
                if n is None:
                    continue
                n = self.find(n)
                cur = self.rows[a][d]
                if cur is not None:
                    queue.append((self.find(cur), n))
                    continue
                self.rows[a][d] = n
                back = self.rows[n][d ^ 1]
                self.rows[n][d ^ 1] = a
                if back is not None and self.find(back) not in (a, b):
                    queue.append((self.find(back), a))


def enumerate_cosets(ngens: int, relators, *, max_cosets: int = 20000):
    """Bounded enumeration of the cosets of the trivial subgroup.

    Returns the group order when the enumeration closes within ``max_cosets``
    cosets, otherwise None.
    """
    table = _CosetTable(2 * ngens)
    table.add()
    relators = [tuple(word) for word in relators]

    c = 0
    while c < len(table.parent):
        if table.find(c) != c:
            c += 1
            continue
        for word in relators:
            if not word:
                continue
            front = table.find(c)
            i = 0
            while i < len(word):
                nxt = table.step(front, word[i])
                if nxt is None:
                    break
                front = nxt
                i += 1
            back = table.find(c)
            j = len(word) - 1
            while j >= i:
                nxt = table.step(back, word[j] ^ 1)
                if nxt is None:
                    break
                back = nxt
                j -= 1
            if j < i:
                table.merge(front, back)
            else:
                while j > i:
                    if len(table.parent) >= max_cosets:
                        return None
                    fresh = table.add()
                    table.deduce(front, word[i], fresh)
                    front = table.find(fresh)
                    i += 1
                table.deduce(front, word[i], back)
            if table.find(c) != c:
                break
        if table.find(c) != c:
            c += 1
            continue
        for d in range(2 * ngens):
            if table.step(c, d) is None:
                if len(table.parent) >= max_cosets:
                    return None
                table.deduce(c, d, table.add())
        c += 1
    return table.live
