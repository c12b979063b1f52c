/* The compiled kernels of balsel's matrix text format: the number scanner
 * balsel_scan and its inverse, the block formatter balsel_format.
 *
 * balsel_scan reads the entries of one matrix block from a byte buffer in a
 * single call.  An entry is a number of the grammar
 *
 *     [+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?   or   [+-]?(inf|infinity|nan)
 *
 * (the words in any case), or, in a complex block, two numbers joined by
 * exactly one comma.  Entries are separated by the ASCII bytes str.split()
 * treats as whitespace, and '#' starts a comment that runs to the next
 * ASCII line end str.splitlines() honours.
 *
 * Conversion is correctly rounded, bit-identical to Python's float().  A
 * mantissa of at most 19 significant digits M with a decimal exponent
 * |k| <= 27 takes Clinger's exact fast path: M and 10^|k| are exact in the
 * 64-bit significand of the x87 long double, so M*10^k (or M/10^-k) is
 * rounded once there.  Rounding that to double is the correct rounding of
 * the exact value unless it sits exactly halfway between two doubles; such
 * a value, and every other token, goes to glibc's correctly rounded
 * strtod (in the C locale).
 *
 * balsel_format writes a block of doubles as text, each number spelled
 * byte for byte as Python's f"{x:.17g}" (see "formatting" below).
 */

#define _GNU_SOURCE
#include <float.h>
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/types.h>

#if LDBL_MANT_DIG == 64 && (defined(__x86_64__) || defined(__i386__))
#define FAST_PATH 1
#else
#define FAST_PATH 0
#endif

enum { SEP = 1, EOL = 2 };

/* SEP: separators (\t \n \v \f \r, \x1c-\x1f, space); EOL: line ends. */
static const unsigned char CLASS[256] = {
    ['\t'] = SEP, ['\n'] = SEP | EOL, ['\v'] = SEP | EOL, ['\f'] = SEP | EOL,
    ['\r'] = SEP | EOL, [0x1c] = SEP | EOL, [0x1d] = SEP | EOL, [0x1e] = SEP | EOL,
    [0x1f] = SEP, [' '] = SEP,
};

/* Runs of 8 digits are read as one little-endian word (SWAR). */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define SWAR_DIGITS 1
#else
#define SWAR_DIGITS 0
#endif

#define IS_DIGIT(c) ((unsigned)((c) - '0') < 10u)
#define ENDS_TOKEN(p, end) ((p) == (end) || (CLASS[*(p)] & SEP) || *(p) == '#')

/* Saturation point of the exponent digits: far past any finite double. */
#define EXP_MAX 100000

#if FAST_PATH
static const long double POW10[28] = {
    1e0L, 1e1L, 1e2L, 1e3L, 1e4L, 1e5L, 1e6L, 1e7L, 1e8L, 1e9L,
    1e10L, 1e11L, 1e12L, 1e13L, 1e14L, 1e15L, 1e16L, 1e17L, 1e18L, 1e19L,
    1e20L, 1e21L, 1e22L, 1e23L, 1e24L, 1e25L, 1e26L, 1e27L,
};
#endif

/* Length of the case-insensitive match of `word` at p, or 0. */
static size_t word(const unsigned char *p, const unsigned char *end, const char *w)
{
    size_t i;
    for (i = 0; w[i]; i++)
        if (p + i >= end || (p[i] | 0x20) != (unsigned char)w[i])
            return 0;
    return i;
}

/* The C locale's numeric conventions, or 0 when it cannot be made. */
static locale_t c_locale(void)
{
    static locale_t c;
    if (!c)
        c = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    return c;
}

/* strtod of the checked token [p, end) in the C locale. */
static double slow(const unsigned char *p, const unsigned char *end)
{
    char small[64], *copy = small;
    size_t n = (size_t)(end - p);
    locale_t c = c_locale();
    double v;
    if (n >= sizeof small && !(copy = malloc(n + 1)))
        return NAN; /* out of memory: reported as a non-finite entry */
    memcpy(copy, p, n);
    copy[n] = '\0';
    v = c ? strtod_l(copy, NULL, c) : strtod(copy, NULL);
    if (copy != small)
        free(copy);
    return v;
}

#if SWAR_DIGITS
/* Whether the 8 bytes of x are all ASCII digits: each byte is 0x3_ and
 * adding 6 keeps it there, i.e. its low nibble is at most 9. */
static int eight_digits(uint64_t x)
{
    const uint64_t hi = 0xF0F0F0F0F0F0F0F0u;
    return ((x & hi) | (((x + 0x0606060606060606u) & hi) >> 4)) == 0x3333333333333333u;
}

/* The value of the 8 digits in x, the first in its lowest byte: pairs,
 * then quads, then the whole, each step one multiply. */
static uint64_t eight_value(uint64_t x)
{
    const uint64_t mask = 0x000000FF000000FFu;
    x -= 0x3030303030303030u;
    x = x * 10 + (x >> 8);
    return ((x & mask) * 0x000F424000000064u + ((x >> 16) & mask) * 0x0000271000000001u) >> 32;
}
#endif

/* Read the digit run at p into m and sig (see number()); return its end. */
static const unsigned char *digits(const unsigned char *p, const unsigned char *end,
                                   uint64_t *m, int *sig)
{
    while (p < end && IS_DIGIT(*p)) {
#if SWAR_DIGITS
        /* after a nonzero digit, 8 more still fit in the first 19 */
        uint64_t x;
        if (*sig && *sig <= 11 && end - p >= 8 && (memcpy(&x, p, 8), eight_digits(x))) {
            *m = 100000000u * *m + eight_value(x);
            *sig += 8;
            p += 8;
            continue;
        }
#endif
        if (*sig || *p != '0') {
            if (*sig < 19)
                *m = 10 * *m + (uint64_t)(*p - '0');
            *sig += *sig < 20;
        }
        p++;
    }
    return p;
}

/* Parse one number at p; store it in *out and return the byte after it,
 * or NULL when no number of the grammar starts at p. */
static const unsigned char *number(const unsigned char *p, const unsigned char *end,
                                   double *out)
{
    const unsigned char *start = p;
    uint64_t m = 0;
    int64_t k = 0, exp = 0;
    int any, sig = 0, neg = 0, exp_neg = 0;
    const unsigned char *q;
    size_t w;

    if (p < end && (*p == '+' || *p == '-'))
        neg = *p++ == '-';
    if ((w = word(p, end, "infinity")) || (w = word(p, end, "inf"))) {
        *out = neg ? -INFINITY : INFINITY;
        return p + w;
    }
    if ((w = word(p, end, "nan"))) {
        *out = neg ? -NAN : NAN;
        return p + w;
    }
    /* value = (all significant digits) * 10^k; m holds the first 19 of them
     * and sig counts them up to 20, past which the fast path does not apply */
    q = digits(p, end, &m, &sig);
    any = q > p;
    p = q;
    if (p < end && *p == '.') {
        q = digits(++p, end, &m, &sig);
        any |= q > p;
        k = p - q;
        p = q;
    }
    if (!any)
        return NULL;
    if (p < end && (*p | 0x20) == 'e') {
        p++;
        if (p < end && (*p == '+' || *p == '-'))
            exp_neg = *p++ == '-';
        if (p == end || !IS_DIGIT(*p))
            return NULL;
        for (; p < end && IS_DIGIT(*p); p++)
            if (exp < EXP_MAX)
                exp = 10 * exp + (*p - '0');
    }
    k += exp_neg ? -exp : exp;

    if (!sig) {
        *out = neg ? -0.0 : 0.0;
        return p;
    }
#if FAST_PATH
    if (sig <= 19 && k >= -27 && k <= 27) {
        long double v = k >= 0 ? (long double)m * POW10[k] : (long double)m / POW10[-k];
        uint64_t bits;
        memcpy(&bits, &v, sizeof bits); /* the x87 64-bit significand */
        if ((bits & 0x7ff) != 0x400) {
            *out = neg ? -(double)v : (double)v;
            return p;
        }
    }
#endif
    *out = slow(start, p);
    return p;
}

/* Skip separators and comments from p. */
static const unsigned char *skip(const unsigned char *p, const unsigned char *end)
{
    while (p < end) {
        if (CLASS[*p] & SEP)
            p++;
        else if (*p == '#')
            while (p < end && !(CLASS[*p] & EOL))
                p++;
        else
            break;
    }
    return p;
}

/* Scan up to `count` entries of buf[pos:len] into out: one double per entry,
 * or a (re, im) pair when `pairs` is set.  Returns the number of entries
 * written and sets *stop to the offset where scanning stopped: after the
 * last entry when all `count` were read, else at the first token that is
 * not an entry, or at len when the buffer ran out.  Never reads buf[len]. */
ssize_t balsel_scan(const char *buf, ssize_t len, ssize_t pos, int pairs, double *out,
                    ssize_t count, ssize_t *stop)
{
    const unsigned char *p = (const unsigned char *)buf + pos;
    const unsigned char *end = (const unsigned char *)buf + len;
    const unsigned char *q;
    ssize_t n;

    for (n = 0; n < count; n++, p = q) {
        p = skip(p, end);
        if (p == end)
            break;
        q = number(p, end, out);
        if (q && pairs)
            q = q < end && *q == ',' ? number(q + 1, end, out + 1) : NULL;
        if (!q || !ENDS_TOKEN(q, end))
            break;
        out += pairs ? 2 : 1;
    }
    *stop = p - (const unsigned char *)buf;
    return n;
}

/* ------------------------------------------------------------ formatting
 *
 * Every finite nonzero x = m * 2^e (m < 2^53) has a decimal exponent X with
 * 10^X <= |x| < 10^(X+1); its %.17g digits are D = round(|x| * 10^(16-X)),
 * a 17-digit integer, rounded half to even.  For k = 16 - X in [-32, 32]
 * that product is exact in 128-bit integers: m * 5^k shifted by e + k when
 * k >= 0 (the bits shifted out decide the rounding, and exact ties such as
 * 2^-25 occur only here), and m * 2^(e+k) divided by 5^-k when k < 0 (an
 * odd divisor: never a tie).  That covers |x| in about [1e-16, 1e48]; every
 * other finite value goes to glibc's correctly rounded snprintf("%.17g") in
 * the C locale.  The digits are then laid out as Python does: trailing
 * zeros stripped, exponent form when X < -4 or X >= 17 with at least two
 * exponent digits, "-0" for negative zero, "inf", "-inf", and "nan" for a
 * NaN of either sign.
 */

/* Longest spelling of a double: "-1.2345678901234567e-308". */
#define NUMBER_MAX 24
#define P16 10000000000000000ULL
#define P17 100000000000000000ULL

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;
#define K_MAX 32 /* m * 5^32 < 2^128 */

/* 5^k for k <= K_MAX, filled when the library is loaded */
static u128 POW5[K_MAX + 1];

__attribute__((constructor)) static void fill_pow5(void)
{
    int k;
    POW5[0] = 1;
    for (k = 1; k <= K_MAX; k++)
        POW5[k] = 5 * POW5[k - 1];
}

/* floor(m * 2^e * 10^k) in *q, and in *above the sign of the remainder
 * minus one half (0 on an exact tie).  Returns 0 when the terms do not
 * fit in 128 bits.  The caller's k keeps the quotient below 10^18. */
static int scaled(uint64_t m, int e, int k, uint64_t *q, int *above)
{
    int s = e + k;
    if (k >= 0) {
        u128 p;
        if (k > K_MAX || s >= 64)
            return 0;
        p = (u128)m * POW5[k];
        if (s >= 0) {
            *q = (uint64_t)(p << s);
            *above = -1;
        } else {
            u128 r, half;
            if (s <= -128)
                return 0;
            r = p & (((u128)1 << -s) - 1);
            half = (u128)1 << (-s - 1);
            *q = (uint64_t)(p >> -s);
            *above = r > half ? 1 : r == half ? 0 : -1;
        }
    } else {
        u128 n, d, r;
        if (k < -K_MAX || s < 0 || s > 127 - 53)
            return 0;
        n = (u128)m << s;
        d = POW5[-k];
        r = n % d;
        *q = (uint64_t)(n / d);
        *above = r > d - r ? 1 : -1;
    }
    return 1;
}

/* The 17 digits D and decimal exponent X of finite nonzero |x| (see above),
 * or 0 when the exact path does not apply. */
static int exact17(double x, uint64_t *digits, int *exp10)
{
    uint64_t bits, m, q;
    int e, X, above;
    memcpy(&bits, &x, sizeof bits);
    e = (int)((bits >> 52) & 0x7ff);
    if (e == 0)
        return 0; /* subnormal: far outside the exact range */
    m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    e -= 1075;
    /* floor((e + 52) log10 2) (exact for every double exponent), so X is
     * this or one more */
    X = ((e + 52) * 78913) >> 18;
    if (!scaled(m, e, 16 - X, &q, &above))
        return 0;
    if (q >= P17 && !scaled(m, e, 16 - ++X, &q, &above))
        return 0;
    if (above > 0 || (above == 0 && (q & 1)))
        q++;
    if (q == P17) {
        q = P16;
        X++;
    }
    *digits = q;
    *exp10 = X;
    return 1;
}

/* Write Python's spelling of the 17 digits D times 10^(X-16) at p, and
 * return the byte after it. */
static char *layout(char *p, uint64_t d, int X)
{
    char dig[17];
    int i, n = 17;
    for (i = 16; i >= 0; i--, d /= 10)
        dig[i] = (char)('0' + d % 10);
    while (dig[n - 1] == '0')
        n--;
    if (X >= 0 && X < 17) {
        memcpy(p, dig, (size_t)X + 1);
        p += X + 1;
        if (n > X + 1) {
            *p++ = '.';
            memcpy(p, dig + X + 1, (size_t)(n - X - 1));
            p += n - X - 1;
        }
    } else if (X < 0 && X >= -4) {
        *p++ = '0';
        *p++ = '.';
        for (i = X + 1; i < 0; i++)
            *p++ = '0';
        memcpy(p, dig, (size_t)n);
        p += n;
    } else {
        int a = X < 0 ? -X : X;
        *p++ = dig[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, dig + 1, (size_t)(n - 1));
            p += n - 1;
        }
        *p++ = 'e';
        *p++ = X < 0 ? '-' : '+';
        *p++ = (char)('0' + a / 10); /* |X| <= 48 here */
        *p++ = (char)('0' + a % 10);
    }
    return p;
}
#endif /* __SIZEOF_INT128__ */

/* Write Python's f"{x:.17g}" at p (at most NUMBER_MAX bytes) and return the
 * byte after it.  The caller has made the C locale current. */
static char *number_text(char *p, double x)
{
    if (isnan(x)) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (signbit(x)) {
        *p++ = '-';
        x = -x;
    }
    if (isinf(x)) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (x == 0) {
        *p = '0';
        return p + 1;
    }
#ifdef __SIZEOF_INT128__
    {
        uint64_t d;
        int X;
        if (exact17(x, &d, &X))
            return layout(p, d, X);
    }
#endif
    return p + snprintf(p, NUMBER_MAX + 1, "%.17g", x);
}

/* Write the rows x cols block at `data` (row-major; a (re, im) pair per
 * entry when `pairs` is set) into out[0:cap] as text: each number as
 * f"{x:.17g}", a ',' between the parts of a pair, a space between entries
 * and '\n' after each row (also after a row of no entries).  Returns the
 * number of bytes written, or -1 when the text does not fit in cap; either
 * way nothing at or past out[cap] is written. */
ssize_t balsel_format(const double *data, ssize_t rows, ssize_t cols, int pairs, char *out,
                      ssize_t cap)
{
    char tmp[2 * NUMBER_MAX + 2], *p = out, *end = out + cap;
    locale_t c = c_locale(), old = c ? uselocale(c) : (locale_t)0;
    ssize_t i, j;

    for (i = 0; i < rows; i++) {
        for (j = 0; j < cols; j++, data += pairs ? 2 : 1) {
            /* near the end, through tmp, so that a long entry is refused
             * before any of it lands past the capacity */
            char *w = end - p >= (ssize_t)sizeof tmp ? p : tmp, *q;
            q = number_text(w, data[0]);
            if (pairs) {
                *q++ = ',';
                q = number_text(q, data[1]);
            }
            *q++ = j + 1 < cols ? ' ' : '\n';
            if (w == tmp) {
                if (q - tmp > end - p)
                    goto full;
                memcpy(p, tmp, (size_t)(q - tmp));
            }
            p += q - w;
        }
        if (cols == 0) {
            if (p == end)
                goto full;
            *p++ = '\n';
        }
    }
    if (c)
        uselocale(old);
    return p - out;
full:
    if (c)
        uselocale(old);
    return -1;
}
