#include "tpcw/procs.h"

namespace mtcache {
namespace tpcw {

Status CreateProcedures(Server* backend, const TpcwConfig& config) {
  std::string window = std::to_string(config.best_seller_window);
  std::string sql = R"sql(
CREATE PROCEDURE getName(@c_id INT) AS BEGIN
  SELECT c_fname, c_lname FROM customer WHERE c_id = @c_id
END;

CREATE PROCEDURE getBook(@i_id INT) AS BEGIN
  SELECT i.i_id, i.i_title, i.i_subject, i.i_desc, i.i_cost, i.i_srp,
         i.i_pub_date, i.i_stock, a.a_fname, a.a_lname
  FROM item i, author a
  WHERE i.i_id = @i_id AND a.a_id = i.i_a_id
END;

CREATE PROCEDURE getCustomer(@uname VARCHAR(20)) AS BEGIN
  SELECT c_id, c_uname, c_passwd, c_fname, c_lname, c_email, c_discount
  FROM customer WHERE c_uname = @uname
END;

CREATE PROCEDURE doSubjectSearch(@subject VARCHAR(20)) AS BEGIN
  SELECT TOP 50 i.i_id, i.i_title, i.i_cost, a.a_fname, a.a_lname
  FROM item i, author a
  WHERE i.i_subject = @subject AND a.a_id = i.i_a_id
  ORDER BY i.i_title
END;

CREATE PROCEDURE doTitleSearch(@title VARCHAR(60)) AS BEGIN
  SELECT TOP 50 i.i_id, i.i_title, i.i_cost, a.a_fname, a.a_lname
  FROM item i, author a
  WHERE i.i_title LIKE @title AND a.a_id = i.i_a_id
  ORDER BY i.i_title
END;

CREATE PROCEDURE doAuthorSearch(@lname VARCHAR(20)) AS BEGIN
  SELECT TOP 50 i.i_id, i.i_title, i.i_cost, a.a_fname, a.a_lname
  FROM item i, author a
  WHERE a.a_lname LIKE @lname AND i.i_a_id = a.a_id
  ORDER BY i.i_title
END;

CREATE PROCEDURE getNewProducts(@subject VARCHAR(20)) AS BEGIN
  SELECT TOP 50 i.i_id, i.i_title, i.i_pub_date, i.i_cost,
         a.a_fname, a.a_lname
  FROM item i, author a
  WHERE i.i_subject = @subject AND a.a_id = i.i_a_id
  ORDER BY i.i_pub_date DESC, i.i_title
END;

CREATE PROCEDURE getBestSellers(@subject VARCHAR(20)) AS BEGIN
  SELECT TOP 50 i.i_id, i.i_title, a.a_fname, a.a_lname,
         SUM(ol.ol_qty) AS total
  FROM order_line ol, item i, author a,
       (SELECT TOP )sql" + window + R"sql( o_id FROM orders
        ORDER BY o_date DESC, o_id DESC) recent
  WHERE ol.ol_o_id = recent.o_id AND i.i_id = ol.ol_i_id
        AND a.a_id = i.i_a_id AND i.i_subject = @subject
  GROUP BY i.i_id, i.i_title, a.a_fname, a.a_lname
  ORDER BY total DESC
END;

CREATE PROCEDURE getRelated(@i_id INT) AS BEGIN
  SELECT i2.i_id, i2.i_title, i2.i_cost
  FROM item i1, item i2
  WHERE i1.i_id = @i_id AND i1.i_related1 = i2.i_id
END;

CREATE PROCEDURE getUserName(@c_id INT) AS BEGIN
  SELECT c_uname FROM customer WHERE c_id = @c_id
END;

CREATE PROCEDURE getPassword(@uname VARCHAR(20)) AS BEGIN
  SELECT c_passwd FROM customer WHERE c_uname = @uname
END;

CREATE PROCEDURE getStock(@i_id INT) AS BEGIN
  SELECT i_stock FROM item WHERE i_id = @i_id
END;

CREATE PROCEDURE getCDiscount(@c_id INT) AS BEGIN
  SELECT c_discount FROM customer WHERE c_id = @c_id
END;

CREATE PROCEDURE getMostRecentOrder(@uname VARCHAR(20)) AS BEGIN
  DECLARE @cid INT;
  SELECT @cid = c_id FROM customer WHERE c_uname = @uname;
  DECLARE @oid INT;
  SELECT @oid = MAX(o_id) FROM orders WHERE o_c_id = @cid;
  SELECT o.o_id, o.o_date, o.o_sub_total, o.o_total, o.o_status,
         ol.ol_i_id, ol.ol_qty, i.i_title
  FROM orders o, order_line ol, item i
  WHERE o.o_id = @oid AND ol.ol_o_id = o.o_id AND i.i_id = ol.ol_i_id
END;

CREATE PROCEDURE getCart(@sc_id INT) AS BEGIN
  SELECT scl.scl_i_id, scl.scl_qty, i.i_title, i.i_cost, i.i_srp
  FROM shopping_cart_line scl, item i
  WHERE scl.scl_sc_id = @sc_id AND i.i_id = scl.scl_i_id
END;

CREATE PROCEDURE createEmptyCart(@sc_id INT) AS BEGIN
  INSERT INTO shopping_cart VALUES (@sc_id, GETDATE())
END;

CREATE PROCEDURE addItem(@sc_id INT, @i_id INT, @qty INT) AS BEGIN
  DECLARE @cnt INT;
  SELECT @cnt = COUNT(*) FROM shopping_cart_line
  WHERE scl_sc_id = @sc_id AND scl_i_id = @i_id;
  IF @cnt > 0 BEGIN
    UPDATE shopping_cart_line SET scl_qty = scl_qty + @qty
    WHERE scl_sc_id = @sc_id AND scl_i_id = @i_id
  END ELSE BEGIN
    INSERT INTO shopping_cart_line VALUES (@sc_id, @i_id, @qty)
  END
END;

CREATE PROCEDURE refreshCart(@sc_id INT, @i_id INT, @qty INT) AS BEGIN
  IF @qty = 0 BEGIN
    DELETE FROM shopping_cart_line
    WHERE scl_sc_id = @sc_id AND scl_i_id = @i_id
  END ELSE BEGIN
    UPDATE shopping_cart_line SET scl_qty = @qty
    WHERE scl_sc_id = @sc_id AND scl_i_id = @i_id
  END
END;

CREATE PROCEDURE resetCartTime(@sc_id INT) AS BEGIN
  UPDATE shopping_cart SET sc_date = GETDATE() WHERE sc_id = @sc_id
END;

CREATE PROCEDURE refreshSession(@c_id INT) AS BEGIN
  UPDATE customer SET c_login = GETDATE() WHERE c_id = @c_id
END;

CREATE PROCEDURE createNewCustomer(@c_id INT, @addr_id INT,
    @uname VARCHAR(20), @passwd VARCHAR(20), @fname VARCHAR(15),
    @lname VARCHAR(15), @email VARCHAR(50), @street VARCHAR(40),
    @city VARCHAR(30), @zip VARCHAR(11), @co_id INT,
    @discount FLOAT) AS BEGIN
  BEGIN TRANSACTION;
  INSERT INTO address VALUES (@addr_id, @street, @city, @zip, @co_id);
  INSERT INTO customer VALUES (@c_id, @uname, @passwd, @fname, @lname,
      @addr_id, @email, GETDATE(), GETDATE(), @discount);
  COMMIT;
  SELECT @c_id AS c_id
END;

CREATE PROCEDURE enterAddress(@addr_id INT, @street VARCHAR(40),
    @city VARCHAR(30), @zip VARCHAR(11), @co_id INT) AS BEGIN
  INSERT INTO address VALUES (@addr_id, @street, @city, @zip, @co_id)
END;

CREATE PROCEDURE enterOrder(@o_id INT, @c_id INT, @sc_id INT,
    @ship_addr INT, @total FLOAT) AS BEGIN
  BEGIN TRANSACTION;
  INSERT INTO orders VALUES (@o_id, @c_id, GETDATE(), @total, @total,
      'pending', @ship_addr);
  INSERT INTO order_line (ol_o_id, ol_i_id, ol_qty, ol_discount)
  SELECT @o_id, scl_i_id, scl_qty, 0.0 FROM shopping_cart_line
  WHERE scl_sc_id = @sc_id;
  INSERT INTO cc_xacts VALUES (@o_id, 'visa', @total, GETDATE());
  DELETE FROM shopping_cart_line WHERE scl_sc_id = @sc_id;
  COMMIT;
  SELECT @o_id AS o_id
END;

CREATE PROCEDURE adminUpdate(@i_id INT, @cost FLOAT) AS BEGIN
  UPDATE item SET i_cost = @cost, i_pub_date = GETDATE() WHERE i_id = @i_id
END;

CREATE PROCEDURE getOrderStatus(@o_id INT) AS BEGIN
  SELECT o_id, o_date, o_total, o_status FROM orders WHERE o_id = @o_id
END;
)sql";
  return backend->ExecuteScript(sql);
}

const std::vector<std::string>& ProceduresToCopy() {
  // Read-dominated procedures the DBA offloads (§6.1.2). getCart reads
  // uncached cart data — it still runs locally and fetches remotely, which
  // the paper explicitly allows (§5.2).
  static const std::vector<std::string>* kProcs = new std::vector<std::string>{
      "getname",       "getbook",        "getcustomer",  "dosubjectsearch",
      "dotitlesearch", "doauthorsearch", "getnewproducts",
      "getbestsellers", "getrelated",    "getusername",  "getpassword",
      "getstock",      "getcdiscount",   "getmostrecentorder", "getcart",
      "getorderstatus"};
  return *kProcs;
}

const std::vector<std::string>& BackendOnlyProcedures() {
  static const std::vector<std::string>* kProcs = new std::vector<std::string>{
      "createemptycart", "additem",        "refreshcart", "resetcarttime",
      "refreshsession",  "createnewcustomer", "enteraddress", "enterorder",
      "adminupdate"};
  return *kProcs;
}

}  // namespace tpcw
}  // namespace mtcache
