/* Compiled NIST P-256 kernel.

   Field elements are four 64-bit limbs kept in the Montgomery domain;
   products use 128-bit intermediates and CIOS reduction. Points use
   Jacobian coordinates with the a = -3 formulas of the Explicit-Formulas
   Database (https://hyperelliptic.org/EFD/g1p/auto-shortw-jacobian-3.html).
   Only two formulas add or double points: the doubling and the mixed
   addition of an affine point. Every precomputed table is therefore
   affine, and batch_normalize converts each with one inversion
   (Montgomery's simultaneous-inversion trick). An inversion is a^(p-2)
   by a fixed addition chain.

   base_mult adds one entry per nonzero 4-bit window from a 64x15
   table of multiples of G, built at import with one inversion per row;
   comb_add is that loop. double_base_mult computes v * Q by unsigned
   4-bit windows, most significant first, over a per-call table of Q's
   multiples 1..15, then lets comb_add add u * G into the same
   accumulator; it raises ValueError for a point off the curve. Results
   equal those of tmisim._p256_py, so the two backends are
   interchangeable behind tmisim.backend.

   Only the limited C API of Python 3.10 is used: integers cross it
   through int.to_bytes and int.from_bytes. */

#define Py_LIMITED_API 0x030A0000
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

typedef struct { uint64_t X[4], Y[4], Z[4]; } JPoint;
typedef struct { uint64_t x[4], y[4]; } APoint;

static PyObject *P_INT, *N_INT;  /* the modulus and group order as ints */

static uint64_t P_LIMBS[4];
static uint64_t N0;          /* -p^-1 mod 2^64 */
static uint64_t R2[4];       /* 2^512 mod p */
static uint64_t ONE_M[4];    /* Montgomery form of 1 */
static uint64_t B_M[4];      /* curve b, Montgomery form */
static uint64_t THREE_M[4];  /* 3, Montgomery form */

static APoint BASE_TABLE[64][15];  /* BASE_TABLE[i][d-1] = d * 16^i * G */


/* ── field arithmetic ─────────────────────────────────────────────────── */

static inline void fe_copy(uint64_t *r, const uint64_t *a)
{
    r[0] = a[0]; r[1] = a[1]; r[2] = a[2]; r[3] = a[3];
}

static inline int fe_eq(const uint64_t *a, const uint64_t *b)
{
    return a[0] == b[0] && a[1] == b[1] && a[2] == b[2] && a[3] == b[3];
}

static inline int fe_is_zero(const uint64_t *a)
{
    return (a[0] | a[1] | a[2] | a[3]) == 0;
}

static inline void fe_set_zero(uint64_t *r)
{
    r[0] = 0; r[1] = 0; r[2] = 0; r[3] = 0;
}

static void fe_add(uint64_t *r, const uint64_t *a, const uint64_t *b)
{
    uint64_t t[4], d[4], carry = 0, borrow = 0;
    u128 acc;
    int i;
    for (i = 0; i < 4; i++) {
        acc = (u128)a[i] + b[i] + carry;
        t[i] = (uint64_t)acc;
        carry = (uint64_t)(acc >> 64);
    }
    for (i = 0; i < 4; i++) {
        acc = (u128)t[i] - P_LIMBS[i] - borrow;
        d[i] = (uint64_t)acc;
        borrow = (uint64_t)(acc >> 64) != 0;
    }
    fe_copy(r, carry || !borrow ? d : t);
}

static void fe_sub(uint64_t *r, const uint64_t *a, const uint64_t *b)
{
    uint64_t t[4], borrow = 0, carry = 0;
    u128 acc;
    int i;
    for (i = 0; i < 4; i++) {
        acc = (u128)a[i] - b[i] - borrow;
        t[i] = (uint64_t)acc;
        borrow = (uint64_t)(acc >> 64) != 0;
    }
    if (borrow) {
        for (i = 0; i < 4; i++) {
            acc = (u128)t[i] + P_LIMBS[i] + carry;
            t[i] = (uint64_t)acc;
            carry = (uint64_t)(acc >> 64);
        }
    }
    fe_copy(r, t);
}

/* CIOS Montgomery multiplication: r = a * b / 2^256 mod p */
static void fe_mul(uint64_t *r, const uint64_t *a, const uint64_t *b)
{
    uint64_t t[6] = {0}, d[4], carry, m, borrow = 0;
    u128 acc;
    int i, j;
    for (i = 0; i < 4; i++) {
        carry = 0;
        for (j = 0; j < 4; j++) {
            acc = (u128)a[j] * b[i] + t[j] + carry;
            t[j] = (uint64_t)acc;
            carry = (uint64_t)(acc >> 64);
        }
        acc = (u128)t[4] + carry;
        t[4] = (uint64_t)acc;
        t[5] = (uint64_t)(acc >> 64);
        m = t[0] * N0;
        acc = (u128)m * P_LIMBS[0] + t[0];
        carry = (uint64_t)(acc >> 64);
        for (j = 1; j < 4; j++) {
            acc = (u128)m * P_LIMBS[j] + t[j] + carry;
            t[j - 1] = (uint64_t)acc;
            carry = (uint64_t)(acc >> 64);
        }
        acc = (u128)t[4] + carry;
        t[3] = (uint64_t)acc;
        carry = (uint64_t)(acc >> 64);
        t[4] = t[5] + carry;
        t[5] = 0;
    }
    for (i = 0; i < 4; i++) {
        acc = (u128)t[i] - P_LIMBS[i] - borrow;
        d[i] = (uint64_t)acc;
        borrow = (uint64_t)(acc >> 64) != 0;
    }
    fe_copy(r, t[4] || !borrow ? d : t);
}

/* r = a^(2^k) * b */
static void fe_sqr_mul(uint64_t *r, const uint64_t *a, int k, const uint64_t *b)
{
    uint64_t t[4];
    fe_copy(t, a);
    while (k-- > 0)
        fe_mul(t, t, t);
    fe_mul(r, t, b);
}

/* r = a^(p-2) = 1/a by an addition chain of 255 squarings and 12
   multiplications. xk = a^(2^k - 1); in binary, p - 2 is 32 ones,
   31 zeros, a one, 96 zeros, 94 ones, a zero and a one. */
static void fe_inv(uint64_t *r, const uint64_t *a)
{
    uint64_t x2[4], x3[4], x6[4], x12[4], x15[4], x30[4], x32[4], t[4];
    fe_sqr_mul(x2, a, 1, a);
    fe_sqr_mul(x3, x2, 1, a);
    fe_sqr_mul(x6, x3, 3, x3);
    fe_sqr_mul(x12, x6, 6, x6);
    fe_sqr_mul(x15, x12, 3, x3);
    fe_sqr_mul(x30, x15, 15, x15);
    fe_sqr_mul(x32, x30, 2, x2);
    fe_sqr_mul(t, x32, 32, a);
    fe_sqr_mul(t, t, 128, x32);
    fe_sqr_mul(t, t, 32, x32);
    fe_sqr_mul(t, t, 30, x30);
    fe_sqr_mul(r, t, 2, a);
}


/* ── Jacobian point arithmetic (a = -3) ───────────────────────────────── */

/* Each routine reads all of its inputs before it writes r, so r may
   alias an input. */

static inline void jp_set_inf(JPoint *r)
{
    fe_set_zero(r->X); fe_copy(r->Y, ONE_M); fe_set_zero(r->Z);
}

static inline int jp_is_inf(const JPoint *a)
{
    return fe_is_zero(a->Z);
}

/* dbl-2001-b */
static void jac_dbl(JPoint *r, const JPoint *a)
{
    uint64_t delta[4], gamma[4], beta[4], alpha[4];
    uint64_t t0[4], t1[4], t2[4], b4[4], b8[4];
    uint64_t X3[4], Y3[4], Z3[4];
    if (jp_is_inf(a) || fe_is_zero(a->Y)) {
        jp_set_inf(r);
        return;
    }
    fe_mul(delta, a->Z, a->Z);
    fe_mul(gamma, a->Y, a->Y);
    fe_mul(beta, a->X, gamma);
    fe_sub(t0, a->X, delta);
    fe_add(t1, a->X, delta);
    fe_mul(t2, t0, t1);
    fe_add(t0, t2, t2);
    fe_add(alpha, t0, t2);
    fe_add(t0, beta, beta);
    fe_add(b4, t0, t0);
    fe_add(b8, b4, b4);
    fe_mul(t0, alpha, alpha);
    fe_sub(X3, t0, b8);
    fe_add(t0, a->Y, a->Z);
    fe_mul(t1, t0, t0);
    fe_sub(t1, t1, gamma);
    fe_sub(Z3, t1, delta);
    fe_sub(t0, b4, X3);
    fe_mul(t1, alpha, t0);
    fe_mul(t2, gamma, gamma);
    fe_add(t0, t2, t2);
    fe_add(t2, t0, t0);
    fe_add(t0, t2, t2);
    fe_sub(Y3, t1, t0);
    fe_copy(r->X, X3); fe_copy(r->Y, Y3); fe_copy(r->Z, Z3);
}

/* madd-2007-bl: mixed addition, implicit Z2 = 1 */
static void jac_add_affine(JPoint *r, const JPoint *a, const APoint *b)
{
    uint64_t Z1Z1[4], U2[4], S2[4], H[4], HH[4], I[4], J[4], rr[4], V[4];
    uint64_t t0[4], t1[4];
    uint64_t X3[4], Y3[4], Z3[4];
    if (jp_is_inf(a)) {
        fe_copy(r->X, b->x); fe_copy(r->Y, b->y); fe_copy(r->Z, ONE_M);
        return;
    }
    fe_mul(Z1Z1, a->Z, a->Z);
    fe_mul(U2, b->x, Z1Z1);
    fe_mul(t0, b->y, a->Z);
    fe_mul(S2, t0, Z1Z1);
    if (fe_eq(U2, a->X)) {
        if (!fe_eq(S2, a->Y))
            jp_set_inf(r);
        else
            jac_dbl(r, a);
        return;
    }
    fe_sub(H, U2, a->X);
    fe_mul(HH, H, H);
    fe_add(t0, HH, HH);
    fe_add(I, t0, t0);
    fe_mul(J, H, I);
    fe_sub(t0, S2, a->Y);
    fe_add(rr, t0, t0);
    fe_mul(V, a->X, I);
    fe_mul(t0, rr, rr);
    fe_sub(t0, t0, J);
    fe_sub(t0, t0, V);
    fe_sub(X3, t0, V);
    fe_sub(t0, V, X3);
    fe_mul(t1, rr, t0);
    fe_mul(t0, a->Y, J);
    fe_add(t0, t0, t0);
    fe_sub(Y3, t1, t0);
    fe_add(t0, a->Z, H);
    fe_mul(t1, t0, t0);
    fe_sub(t1, t1, Z1Z1);
    fe_sub(Z3, t1, HH);
    fe_copy(r->X, X3); fe_copy(r->Y, Y3); fe_copy(r->Z, Z3);
}

/* row[k-1] = k * base for k = 1..n, by mixed additions */
static void multiples(JPoint *row, const APoint *base, int n)
{
    int k;
    fe_copy(row[0].X, base->x); fe_copy(row[0].Y, base->y);
    fe_copy(row[0].Z, ONE_M);
    for (k = 1; k < n; k++)
        jac_add_affine(&row[k], &row[k - 1], base);
}

/* out[i] = in[i] in affine form, still in the Montgomery domain, for
   n <= 16 finite points: one inversion of the product of the Z's, then
   each 1/Z from the prefix products */
static void batch_normalize(APoint *out, const JPoint *in, int n)
{
    uint64_t prefix[16][4], inv[4], zi[4], zi2[4];
    int i;
    fe_copy(prefix[0], ONE_M);
    for (i = 1; i < n; i++)
        fe_mul(prefix[i], prefix[i - 1], in[i - 1].Z);
    fe_mul(inv, prefix[n - 1], in[n - 1].Z);
    fe_inv(inv, inv);
    for (i = n - 1; i >= 0; i--) {
        fe_mul(zi, prefix[i], inv);
        fe_mul(inv, inv, in[i].Z);
        fe_mul(zi2, zi, zi);
        fe_mul(out[i].x, in[i].X, zi2);
        fe_mul(zi2, zi2, zi);
        fe_mul(out[i].y, in[i].Y, zi2);
    }
}


/* ── conversions to and from Python ints ──────────────────────────────── */

/* r = v as plain limbs, for an int 0 <= v < 2^256 */
static int limbs_from_int(uint64_t *r, PyObject *v)
{
    PyObject *bytes;
    const unsigned char *s;
    int i, j;
    bytes = PyObject_CallMethod(v, "to_bytes", "is", 32, "little");
    if (bytes == NULL)
        return -1;
    s = (const unsigned char *)PyBytes_AsString(bytes);
    if (s == NULL) {
        Py_DECREF(bytes);
        return -1;
    }
    for (i = 0; i < 4; i++) {
        r[i] = 0;
        for (j = 7; j >= 0; j--)
            r[i] = r[i] << 8 | s[8 * i + j];
    }
    Py_DECREF(bytes);
    return 0;
}

/* r = v mod m as plain limbs. Fails with TypeError unless v % m is an
   int, so negative and oversized ints reduce as they do in Python. */
static int limbs_mod(uint64_t *r, PyObject *v, PyObject *m)
{
    PyObject *rem;
    int ret;
    rem = PyNumber_Remainder(v, m);
    if (rem == NULL)
        return -1;
    if (!PyLong_Check(rem)) {
        Py_DECREF(rem);
        PyErr_SetString(PyExc_TypeError, "P-256 kernel arguments must be ints");
        return -1;
    }
    ret = limbs_from_int(r, rem);
    Py_DECREF(rem);
    return ret;
}

static PyObject *int_from_limbs(const uint64_t *a)
{
    unsigned char s[32];
    int i, j;
    for (i = 0; i < 4; i++)
        for (j = 0; j < 8; j++)
            s[8 * i + j] = (unsigned char)(a[i] >> (8 * j));
    return PyObject_CallMethod((PyObject *)&PyLong_Type, "from_bytes", "y#s",
                               (const char *)s, (Py_ssize_t)32, "little");
}

/* r = v mod p, Montgomery form */
static int fe_from_int(uint64_t *r, PyObject *v)
{
    uint64_t t[4];
    if (limbs_mod(t, v, P_INT) < 0)
        return -1;
    fe_mul(r, t, R2);
    return 0;
}

static PyObject *fe_to_int(const uint64_t *a)
{
    uint64_t one[4] = {1, 0, 0, 0}, t[4];
    fe_mul(t, a, one);
    return int_from_limbs(t);
}

/* (x, y) in affine coordinates, or None at infinity */
static PyObject *jp_to_affine(const JPoint *a)
{
    APoint out;
    PyObject *x, *y;
    if (jp_is_inf(a))
        Py_RETURN_NONE;
    batch_normalize(&out, a, 1);
    x = fe_to_int(out.x);
    y = fe_to_int(out.y);
    if (x == NULL || y == NULL) {
        Py_XDECREF(x);
        Py_XDECREF(y);
        return NULL;
    }
    return Py_BuildValue("(NN)", x, y);
}


/* ── scalar multiplication ────────────────────────────────────────────── */

/* the i-th 4-bit window of a scalar, least significant first */
static inline int window(const uint64_t *k, int i)
{
    return (int)((k[i >> 4] >> ((i & 15) << 2)) & 15);
}

/* acc += k * G by the fixed-base comb: one entry of BASE_TABLE per
   nonzero 4-bit window of k, and no doublings */
static void comb_add(JPoint *acc, const uint64_t *k)
{
    int i, d;
    for (i = 0; i < 64; i++) {
        d = window(k, i);
        if (d)
            jac_add_affine(acc, acc, &BASE_TABLE[i][d - 1]);
    }
}

/* u * G + v * q: v by unsigned 4-bit windows over q's multiples 1..15,
   most significant window first, then u by the comb */
static PyObject *double_base_mult_limbs(const uint64_t *u, const uint64_t *v,
                                        const APoint *q)
{
    JPoint row[15], acc;
    APoint table[15];
    int i, j, d;
    multiples(row, q, 15);
    batch_normalize(table, row, 15);
    jp_set_inf(&acc);
    for (i = 63; i >= 0; i--) {
        for (j = 0; j < 4; j++)
            jac_dbl(&acc, &acc);
        d = window(v, i);
        if (d)
            jac_add_affine(&acc, &acc, &table[d - 1]);
    }
    comb_add(&acc, u);
    return jp_to_affine(&acc);
}


/* ── module functions (same API as tmisim._p256_py) ───────────────────── */

/* 0 <= v < P as Python compares it, or -1 with an exception set */
static int in_field(PyObject *v)
{
    PyObject *zero = PyLong_FromLong(0);
    int ok;
    if (zero == NULL)
        return -1;
    ok = PyObject_RichCompareBool(zero, v, Py_LE);
    Py_DECREF(zero);
    return ok == 1 ? PyObject_RichCompareBool(v, P_INT, Py_LT) : ok;
}

/* y^2 == x^3 - 3x + b for a point in Montgomery form */
static int on_curve(const APoint *q)
{
    uint64_t t0[4], t1[4];
    fe_mul(t0, q->x, q->x);
    fe_mul(t0, t0, q->x);       /* x^3 */
    fe_mul(t1, THREE_M, q->x);  /* 3x */
    fe_sub(t0, t0, t1);
    fe_add(t0, t0, B_M);        /* x^3 - 3x + b */
    fe_mul(t1, q->y, q->y);
    return fe_eq(t0, t1);
}

static PyObject *py_is_on_curve(PyObject *Py_UNUSED(self), PyObject *args,
                                PyObject *kwargs)
{
    static char *kwlist[] = {"x", "y", NULL};
    PyObject *x, *y;
    APoint q;
    int ok;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:is_on_curve", kwlist,
                                     &x, &y))
        return NULL;
    ok = in_field(x);
    if (ok == 1)
        ok = in_field(y);
    if (ok < 0)
        return NULL;
    if (!ok)
        Py_RETURN_FALSE;
    if (fe_from_int(q.x, x) < 0 || fe_from_int(q.y, y) < 0)
        return NULL;
    return PyBool_FromLong(on_curve(&q));
}

static PyObject *py_base_mult(PyObject *Py_UNUSED(self), PyObject *args,
                              PyObject *kwargs)
{
    static char *kwlist[] = {"k", NULL};
    PyObject *k;
    uint64_t kl[4];
    JPoint acc;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O:base_mult", kwlist, &k)
        || limbs_mod(kl, k, N_INT) < 0)
        return NULL;
    jp_set_inf(&acc);
    comb_add(&acc, kl);
    return jp_to_affine(&acc);
}

static PyObject *py_double_base_mult(PyObject *Py_UNUSED(self), PyObject *args,
                                     PyObject *kwargs)
{
    static char *kwlist[] = {"u", "v", "x", "y", NULL};
    PyObject *u, *v, *x, *y;
    uint64_t ul[4], vl[4];
    APoint q;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO:double_base_mult",
                                     kwlist, &u, &v, &x, &y)
        || limbs_mod(ul, u, N_INT) < 0
        || limbs_mod(vl, v, N_INT) < 0
        || fe_from_int(q.x, x) < 0 || fe_from_int(q.y, y) < 0)
        return NULL;
    if (!on_curve(&q)) {
        PyErr_SetString(PyExc_ValueError, "point is not on the curve");
        return NULL;
    }
    if (fe_is_zero(ul) && fe_is_zero(vl))
        Py_RETURN_NONE;
    return double_base_mult_limbs(ul, vl, &q);
}

#define KW_METHOD(name, doc) \
    {#name, (PyCFunction)(void (*)(void))py_##name, \
     METH_VARARGS | METH_KEYWORDS, PyDoc_STR(doc)}

static PyMethodDef methods[] = {
    KW_METHOD(is_on_curve, "is_on_curve(x, y) -> bool"),
    KW_METHOD(base_mult,
              "Return k*G in affine coordinates (None for k == 0 mod N)."),
    KW_METHOD(double_base_mult,
              "Return u*G + v*(x, y) in affine coordinates, or None at "
              "infinity."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "tmisim._speedups",
    .m_doc = PyDoc_STR("Compiled NIST P-256 kernel."),
    .m_size = -1,
    .m_methods = methods,
};


/* ── module set-up: constants and precomputed tables ──────────────────── */

/* Row i of BASE_TABLE from its affine base 16^i * G, which out[15]
   holds. The row's batch also normalises 16 * base, the next row's base,
   into out[15]. */
static int init_tables(PyObject *gx, PyObject *gy)
{
    JPoint row[16];
    APoint out[16];
    int i;
    if (fe_from_int(out[15].x, gx) < 0 || fe_from_int(out[15].y, gy) < 0)
        return -1;
    for (i = 0; i < 64; i++) {
        multiples(row, &out[15], 16);
        batch_normalize(out, row, 16);
        memcpy(BASE_TABLE[i], out, sizeof BASE_TABLE[i]);
    }
    return 0;
}

/* Field constants from P's limbs */
static int init_field(PyObject *b)
{
    uint64_t three[4] = {3, 0, 0, 0}, inv;
    int i;
    if (limbs_from_int(P_LIMBS, P_INT) < 0)
        return -1;
    inv = P_LIMBS[0];  /* Newton's iteration for p^-1 mod 2^64 */
    for (i = 0; i < 6; i++)
        inv *= 2 - P_LIMBS[0] * inv;
    N0 = -inv;
    /* 2^256 mod p = 2^256 - p, since 2^255 < p */
    for (i = 0; i < 4; i++)
        ONE_M[i] = ~P_LIMBS[i];
    ONE_M[0] += 1;  /* p is odd: no carry */
    fe_copy(R2, ONE_M);
    for (i = 0; i < 256; i++)  /* 2^256 * 2^256 mod p by doubling */
        fe_add(R2, R2, R2);
    fe_mul(THREE_M, three, R2);
    return fe_from_int(B_M, b);
}

PyMODINIT_FUNC PyInit__speedups(void)
{
    static const char *const names[] = {"P", "N", "B", "GX", "GY"};
    static const char *const hex[] = {
        "FFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF",
        "FFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551",
        "5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B",
        "6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296",
        "4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5",
    };
    PyObject *m, *ints[5] = {NULL};
    int i;
    m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0)
        goto fail;
    for (i = 0; i < 5; i++) {
        ints[i] = PyLong_FromString(hex[i], NULL, 16);
        if (ints[i] == NULL || PyModule_AddObjectRef(m, names[i], ints[i]) < 0)
            goto fail;
    }
    P_INT = ints[0];
    N_INT = ints[1];
    if (init_field(ints[2]) < 0 || init_tables(ints[3], ints[4]) < 0)
        goto fail;
    for (i = 2; i < 5; i++)
        Py_DECREF(ints[i]);
    return m;  /* P_INT and N_INT keep their references */
fail:
    for (i = 0; i < 5; i++)
        Py_XDECREF(ints[i]);
    Py_DECREF(m);
    return NULL;
}
