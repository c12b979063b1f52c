/* Number scanning for balsel's matrix text format.
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
 */

#define _GNU_SOURCE
#include <float.h>
#include <locale.h>
#include <math.h>
#include <stdint.h>
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

/* strtod of the checked token [p, end) in the C locale. */
static double slow(const unsigned char *p, const unsigned char *end)
{
    static locale_t c_locale;
    char small[64], *copy = small;
    size_t n = (size_t)(end - p);
    double v;
    if (!c_locale)
        c_locale = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (n >= sizeof small && !(copy = malloc(n + 1)))
        return NAN; /* out of memory: reported as a non-finite entry */
    memcpy(copy, p, n);
    copy[n] = '\0';
    v = c_locale ? strtod_l(copy, NULL, c_locale) : strtod(copy, NULL);
    if (copy != small)
        free(copy);
    return v;
}

/* Parse one number at p; store it in *out and return the byte after it,
 * or NULL when no number of the grammar starts at p. */
static const unsigned char *number(const unsigned char *p, const unsigned char *end,
                                   double *out)
{
    const unsigned char *start = p;
    uint64_t m = 0;
    int64_t k = 0, exp = 0;
    int any = 0, sig = 0, neg = 0, exp_neg = 0;
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
    for (; p < end && IS_DIGIT(*p); p++, any = 1)
        if (sig || *p != '0') {
            if (sig < 19)
                m = 10 * m + (uint64_t)(*p - '0');
            sig += sig < 20;
        }
    if (p < end && *p == '.')
        for (p++; p < end && IS_DIGIT(*p); p++, any = 1, k--)
            if (sig || *p != '0') {
                if (sig < 19)
                    m = 10 * m + (uint64_t)(*p - '0');
                sig += sig < 20;
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
