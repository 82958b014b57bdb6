#include "tpcw/schema.h"

namespace mtcache {
namespace tpcw {

const char* const kSubjects[] = {
    "arts",      "biographies", "business",  "children", "computers",
    "cooking",   "health",      "history",   "home",     "humor",
    "literature", "mystery",    "non-fiction", "parenting", "politics",
    "reference", "religion",    "romance",   "self-help", "science",
    "science-fiction", "sports", "travel",   "youth"};
const int kNumSubjects = 24;

Status CreateSchema(Server* server) {
  return server->ExecuteScript(R"sql(
CREATE TABLE country (
  co_id INT PRIMARY KEY,
  co_name VARCHAR(50)
);
CREATE TABLE address (
  addr_id INT PRIMARY KEY,
  addr_street VARCHAR(40),
  addr_city VARCHAR(30),
  addr_zip VARCHAR(11),
  addr_co_id INT
);
CREATE TABLE customer (
  c_id INT PRIMARY KEY,
  c_uname VARCHAR(20) NOT NULL,
  c_passwd VARCHAR(20),
  c_fname VARCHAR(15),
  c_lname VARCHAR(15),
  c_addr_id INT,
  c_email VARCHAR(50),
  c_since INT,
  c_login INT,
  c_discount FLOAT
);
CREATE TABLE author (
  a_id INT PRIMARY KEY,
  a_fname VARCHAR(20),
  a_lname VARCHAR(20),
  a_bio VARCHAR(100)
);
CREATE TABLE item (
  i_id INT PRIMARY KEY,
  i_title VARCHAR(60),
  i_a_id INT,
  i_pub_date INT,
  i_subject VARCHAR(20),
  i_desc VARCHAR(100),
  i_srp FLOAT,
  i_cost FLOAT,
  i_stock INT,
  i_related1 INT
);
CREATE TABLE orders (
  o_id INT PRIMARY KEY,
  o_c_id INT,
  o_date INT,
  o_sub_total FLOAT,
  o_total FLOAT,
  o_status VARCHAR(16),
  o_ship_addr_id INT
);
CREATE TABLE order_line (
  ol_o_id INT,
  ol_i_id INT,
  ol_qty INT,
  ol_discount FLOAT,
  PRIMARY KEY (ol_o_id, ol_i_id)
);
CREATE TABLE cc_xacts (
  cx_o_id INT PRIMARY KEY,
  cx_type VARCHAR(10),
  cx_amount FLOAT,
  cx_date INT
);
CREATE TABLE shopping_cart (
  sc_id INT PRIMARY KEY,
  sc_date INT
);
CREATE TABLE shopping_cart_line (
  scl_sc_id INT,
  scl_i_id INT,
  scl_qty INT,
  PRIMARY KEY (scl_sc_id, scl_i_id)
);
CREATE UNIQUE INDEX customer_uname ON customer (c_uname);
CREATE INDEX item_subject ON item (i_subject);
CREATE INDEX item_author ON item (i_a_id);
CREATE INDEX item_pubdate ON item (i_pub_date);
CREATE INDEX author_lname ON author (a_lname);
CREATE INDEX orders_cid ON orders (o_c_id);
CREATE INDEX orders_date ON orders (o_date, o_id);
CREATE INDEX orderline_item ON order_line (ol_i_id);
)sql");
}

}  // namespace tpcw
}  // namespace mtcache
