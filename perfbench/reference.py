"""The fixed computation whose time tells the benchmark how fast the host
is at the moment: Fraction elimination on a 6x6 matrix, tuple keys in a
dict, sorting -- stdlib work shaped like coxtw's own, sharing no code with
it.  It takes about 10 ms on the host it was sized on.  Kept apart from
run.py so that a fresh interpreter can run it cheaply:
`python3 -c "import reference; reference.work()"`.
"""

from fractions import Fraction

REPS = 7
MATRIX = tuple(tuple(Fraction((3 * i + 5 * j) % 7 + 9 * (i == j),
                              1 + (i + j) % 3) for j in range(6))
               for i in range(6))


def work():
    seen = {}
    for k in range(REPS):
        m = [[*row, Fraction(r)] for r, row in enumerate(MATRIX)]
        for c in range(6):
            inv = 1 / m[c][c]
            for r in range(6):
                if r != c and m[r][c]:
                    f = m[r][c] * inv
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        key = tuple((row[6] / row[r]).denominator % 97 + k
                    for r, row in enumerate(m))
        seen[key] = len(sorted(seen))
